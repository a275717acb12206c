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
    assert len(idtrack.__all__) == 23
    assert not {"update_trajectory", "Detection", "iou", "iou_matrix"} & set(idtrack.__all__)
    kernels = importlib.import_module("idtrack.kernels")
    assert not set(kernels.__all__) & set(idtrack.__all__)


def test_the_file_layer_imports_nothing_from_the_tracker():
    # mot_io sits below the tracker: results reach its writer as the
    # ``IdStream`` that the tracker returns, so the file layer needs none of its types.
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


def readme_blocks(readme: Path = README) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)


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
    # itself as scipy.optimize._lsap, without its package. The network's
    # numeric kernels are not part of the package root.
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


# Each exception to the dead-code rule, keyed ``(module or class, name)``,
# with its reason. An entry that names nothing the rule flags fails the lint.
KEPT_FOR_PERFBENCH = {
    ("metrics", "iou"): "perfbench/spans.py counts calls to metrics.iou, which metrics imports for that alone",
}

# Exported names that code reaches only by a string, which the rule cannot see.
KEPT_EXPORTED = {
    ("affinity", "iou"): "perfbench/spans.py patches affinity.iou by name to count its calls",
}

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
    """Every name a module reads: by name, as an attribute or in a string
    annotation (or a string in a subscripted type alias). Neither an import
    nor ``__all__`` reads a name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None), getattr(node, "slice", None)):
            for text in ast.walk(hint) if hint else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    try:
                        read |= names_read(ast.parse(text.value, mode="eval"))
                    except SyntaxError:  # a subscript key, not a type
                        pass
    return read


def exported(tree: ast.Module) -> set[str]:
    """The names in a module's ``__all__``."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets) for name in ast.literal_eval(node.value)}


def definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and constants, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [t.id for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


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


def dead_code(package: dict[str, ast.Module], users: list[ast.Module]) -> dict[tuple[str, str], str]:
    """What the package's modules hold that nothing reads, keyed ``(module or
    class, name)``, each with its message: a private module-level function,
    class or constant that no module of the package reads; an import that its
    module neither reads nor exports; and a public module-level definition,
    method or property that neither the package nor ``users`` read."""
    reads = {module: names_read(tree) for module, tree in package.items()}
    everywhere = set().union(*reads.values())
    used = everywhere.union(*map(names_read, users))
    found = {}
    for module, tree in package.items():
        for name in definitions(tree):
            if name not in (everywhere if name.startswith("_") else used):
                found[module, name] = f"{module}.{name} is never read"
        for name in imported_names(tree):
            if name not in reads[module] | exported(tree):
                found[module, name] = f"{module} never uses its import {name}"
        for cls, name in public_methods(tree):
            if name not in used:
                found[cls, name] = f"{cls}.{name} is never read"
    return found


def lint(found: dict[tuple[str, str], str], *kept: dict[tuple[str, str], str]) -> list[str]:
    """The messages of ``found`` that no entry of ``kept`` excuses, then each
    entry that excuses nothing."""
    kept = {key: reason for entries in kept for key, reason in entries.items()}
    return [message for key, message in found.items() if key not in kept] + [
        f"{scope}.{name} is kept ({reason}) but the rule does not flag it" for (scope, name), reason in kept.items()
        if (scope, name) not in found]


def package_trees(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}


def user_trees(repo: Path) -> list[ast.Module]:
    """The code that counts as reading the package: the acceptance tests,
    perfbench and README's python blocks."""
    paths = [repo / "tests" / "test_acceptance.py", *(repo / "perfbench").rglob("*.py")]
    return [ast.parse(path.read_text()) for path in paths] + [ast.parse(b) for b in readme_blocks(repo / "README.md")]


def test_the_package_holds_no_dead_code():
    # Lint without a linter: see dead_code. Only the package, the acceptance
    # tests, perfbench and README examples count as readers, not other tests.
    found = dead_code(package_trees(Path(idtrack.__file__).parent), user_trees(README.parent))
    assert lint(found, KEPT_FOR_PERFBENCH, KEPT_EXPORTED, KEPT_WITH_THE_VIEWS) == []


HELPER = ast.parse('__all__ = ["helper"]\n\n\ndef helper():\n    return 1\n')


def scratch_repo(tmp_path: Path, acceptance: str = "", perfbench: str = "", readme: str = "") -> Path:
    """A repository of the readers ``user_trees`` takes, beside a test
    module that calls ``helper``."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(acceptance)
    (tmp_path / "tests" / "test_mod.py").write_text("from mod import helper\n\nassert helper() == 1\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(perfbench)
    (tmp_path / "README.md").write_text(f"# scratch\n\n```python\n{readme}```\n")
    return tmp_path


def test_an_export_that_only_a_test_reads_is_dead(tmp_path):
    users = user_trees(scratch_repo(tmp_path))
    assert dead_code({"mod": HELPER}, users) == {("mod", "helper"): "mod.helper is never read"}


@pytest.mark.parametrize("where", ["acceptance", "perfbench", "readme"])
def test_an_export_that_a_user_reads_is_live(tmp_path, where):
    users = user_trees(scratch_repo(tmp_path, **{where: "import mod\n\nassert mod.helper() == 1\n"}))
    assert dead_code({"mod": HELPER}, users) == {}


def test_a_re_export_reads_nothing(tmp_path):
    # The package root's import and __all__ re-export helper; neither reads
    # it, and the import is not unused, as the root exports it.
    root = ast.parse('from .mod import helper\n\n__all__ = ["helper"]\n')
    users = user_trees(scratch_repo(tmp_path))
    assert dead_code({"__init__": root, "mod": HELPER}, users) == {("mod", "helper"): "mod.helper is never read"}


def test_an_exception_that_excuses_nothing_fails_the_lint():
    found = {("mod", "helper"): "mod.helper is never read"}
    kept = {("mod", "helper"): "read by name", ("mod", "gone"): "no longer there"}
    assert lint(found, kept) == ["mod.gone is kept (no longer there) but the rule does not flag it"]
    assert lint(found, {("mod", "helper"): "read by name"}) == []
    assert lint(found) == ["mod.helper is never read"]
