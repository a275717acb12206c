import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idtrack

MODULES = ["idtrack"] + [f"idtrack.{m.name}" for m in pkgutil.iter_modules(idtrack.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_the_root_exports_tracking_only():
    assert len(idtrack.__all__) == 25
    assert not {"update_trajectory", "Detection", "iou", "iou_matrix"} & set(idtrack.__all__)
    kernels = importlib.import_module("idtrack.kernels")
    assert not set(kernels.__all__) & set(idtrack.__all__)


def test_the_file_layer_imports_nothing_from_the_tracker():
    # mot_io sits below the tracker: results reach its writer as
    # ``hypotheses`` batches, so the file layer needs none of its types.
    tree = ast.parse(Path(idtrack.__file__).with_name("mot_io.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["idtrack" if node.level else None, node.module]))
            modules += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert "idtrack.geometry" in modules  # relative imports resolve
    assert "idtrack.tracker" not in modules


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    # Every python block of README.md, in order and in one namespace, so the
    # library examples cannot drift from the package.
    blocks = readme_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_scipy_is_imported_only_when_a_solve_needs_it(tmp_path):
    # simulate never solves. A solve loads scipy's assignment extension
    # alone: scipy.optimize and the linalg and sparse packages it pulls in
    # are most of scipy's import time and memory. The extension registers
    # itself as scipy.optimize._lsap, without its package. The training-side
    # kernels are not part of the package root.
    config = tmp_path / "sim.cfg"
    config.write_text("num_identities=2\nframes=5\n")
    scene = tmp_path / "scene"
    code = "\n".join(
        [
            "import sys",
            "import idtrack",
            "assert 'scipy' not in sys.modules, 'after import idtrack'",
            "assert 'idtrack.kernels' not in sys.modules, 'kernels after import idtrack'",
            "from idtrack.cli import main",
            f"assert main(['simulate', '--config', {str(config)!r}, '--out-dir', {str(scene)!r}]) == 0",
            "assert 'scipy' not in sys.modules, 'after idtrack simulate'",
            "assert 'idtrack.kernels' not in sys.modules, 'kernels after idtrack simulate'",
            "heavy = ('scipy.optimize', 'scipy.linalg', 'scipy.sparse')",
            "def loaded():",
            "    return sorted(m for m in sys.modules if m.startswith(heavy) and m != 'scipy.optimize._lsap')",
            "assert idtrack.solve_max([[1.0]]).pairs == ((0, 0),)",
            "assert 'scipy' in sys.modules and loaded() == [], f'after a solve: {loaded()}'",
            f"assert main(['track', '--dets', {str(scene / 'dets.txt')!r}, '--embeddings',"
            f" {str(scene / 'embeddings.txt')!r}, '--out', {str(tmp_path / 'hyp.txt')!r}]) == 0",
            f"assert main(['eval', '--gt', {str(scene / 'gt.txt')!r}, '--hyp', {str(tmp_path / 'hyp.txt')!r}]) == 0",
            f"assert main(['ablate', '--config', {str(config)!r}]) == 0",
            "assert loaded() == [], f'after idtrack track, eval and ablate: {loaded()}'",
            "assert 'idtrack.kernels' not in sys.modules, 'kernels after idtrack track, eval and ablate'",
            # numpy.ma (about 1 MB of module objects, left in the heap among
            # the stages' arrays) loads on a bare np.unique or np.union1d.
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma after idtrack simulate, track, eval and ablate'",
        ]
    )
    src = str(Path(idtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# perfbench/spans.py counts calls to metrics.iou, which metrics imports for
# that alone.
KEPT_FOR_PERFBENCH = {("metrics", "iou")}

# Public accessors of the row views that no pipeline stage, benchmark or
# README example reads; only tests do. They go with the views themselves
# (ROADMAP item 10), which the replay and perfbench/spans.py still iterate.
KEPT_WITH_THE_VIEWS = {
    ("Detection", "embedding"): "a detection view's embedding row, read by the tests' reference update",
    ("Detection", "prediction"): "a detection view's predicted box, read by the tests' reference update",
    ("Trajectory", "head_embedding"): "a trajectory view's embedding, read by the tests' state snapshots",
    ("Trajectory", "avg_velocity"): "a trajectory view's velocity, read by the tests' state snapshots",
    ("Trajectory", "last_confidence"): "a trajectory view's confidence, read by the tests' state snapshots",
    ("Trajectory", "predicted_box"): "a trajectory view's prediction, read by the tests' state snapshots",
}


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads: by name, as an attribute, in ``__all__``
    or in a string annotation (or a string in a subscripted type alias)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None), getattr(node, "slice", None)):
            for text in ast.walk(hint) if hint else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    try:
                        read |= names_read(ast.parse(text.value, mode="eval"))
                    except SyntaxError:  # a subscript key, not a type
                        pass
    return read


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and constants whose names start
    with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [t.id for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, ``__future__`` aside."""
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names]


def public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, name)`` of each public method and property that a class of
    the module defines."""
    return [(node.name, item.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def test_the_package_holds_no_dead_code():
    # Lint without a linter: a private function, class or constant that no
    # module of the package reads, an import its module never reads, or a
    # public method or property that neither the package, the acceptance
    # tests, perfbench nor a README example reads.
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(idtrack.__file__).parent.glob("*.py")}
    reads = {module: names_read(tree) for module, tree in trees.items()}
    everywhere = set().union(*reads.values())
    dead = [f"{module}.{name} is never used" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in everywhere]
    dead += [f"{module} never uses its import {name}" for module, tree in trees.items()
             for name in imported_names(tree) if name not in reads[module] and (module, name) not in KEPT_FOR_PERFBENCH]
    repo = Path(__file__).resolve().parents[1]
    users = [repo / "tests" / "test_acceptance.py", *(repo / "perfbench").rglob("*.py")]
    users = [ast.parse(path.read_text()) for path in users] + [ast.parse(block) for block in readme_blocks()]
    used = everywhere.union(*map(names_read, users))
    dead += [f"{cls}.{name} is never read" for tree in trees.values() for cls, name in public_methods(tree)
             if name not in used and (cls, name) not in KEPT_WITH_THE_VIEWS]
    assert dead == []
