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


def test_readme_python_blocks_run():
    # Every python block of README.md, in order and in one namespace, so the
    # library examples cannot drift from the package.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


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
        ]
    )
    src = str(Path(idtrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
