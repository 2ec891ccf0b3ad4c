"""The package's public names are exactly those its modules export, its
version is declared once, only the raster module freezes the arrays a map
holds or reads a map's box or placement, no module plants a value in an
object's vars(), importing the command line loads no scipy module, and
make-targets loads no numpy.ma."""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointedge

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MODULES = ("annotations", "kernels", "losses", "metrics", "pgm", "raster")


def test_package_exports_the_union_of_its_modules_exports():
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module(f"pointedge.{module_name}")
        for name in module.__all__:
            assert name not in owners, name
            owners[name] = module
    assert len(set(pointedge.__all__)) == len(pointedge.__all__)
    assert set(pointedge.__all__) == set(owners) | {"__version__"}
    for name, module in owners.items():
        assert getattr(pointedge, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from pointedge import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(pointedge.__all__)


@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools.* is still")
def test_pyproject_version_is_the_package_version():
    # pyproject.toml reads the version from pointedge.__version__.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == pointedge.__version__


def writes_into_vars(node: ast.AST) -> bool:
    """Whether ``node`` writes into an object's ``vars()`` or ``__dict__``:
    an item assignment or deletion, or a call that changes it."""
    def is_vars(expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Call) and ast.unparse(expr.func) == "vars"
        ) or (isinstance(expr, ast.Attribute) and expr.attr == "__dict__")

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(isinstance(t, ast.Subscript) and is_vars(t.value) for t in targets)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear", "__setitem__")
        and is_vars(node.func.value)
    )


def test_only_raster_freezes_or_plants_a_maps_arrays():
    # raster.py alone knows how a map holds its arrays: elsewhere no array is
    # made read-only and no attribute is set on a frozen object but self.
    # No module, raster included, plants a value in an object's vars(): a
    # map's derived arrays are cached properties, computed on first read.
    breaches = []
    for path in sorted((SRC / "pointedge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if writes_into_vars(node):
                breaches.append(f"{path.name}:{node.lineno} writes into vars()")
            if path.name == "raster.py":
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)
            ]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                ):
                    breaches.append(f"{path.name}:{node.lineno} sets flags.writeable")
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"
                and not (
                    node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "self"
                )
            ):
                breaches.append(f"{path.name}:{node.lineno} sets an attribute of another object")
    assert breaches == []


def test_only_raster_reads_a_gray_maps_levels():
    # raster.py alone knows how a map stores its levels or bits and places
    # its box in the frame, so it alone binarizes one or reaches its box: no
    # other module reads a .levels, .maxval, .box, .frame or .origin
    # attribute.
    breaches = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in sorted((SRC / "pointedge").glob("*.py"))
        if path.name != "raster.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("levels", "maxval", "box", "frame", "origin")
    ]
    assert breaches == []


@functools.cache
def scipy_modules_loaded_by_cli_import() -> list[str]:
    """The scipy modules ``import pointedge.cli`` loads in a fresh interpreter,
    found once per test session."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, pointedge.cli; "
        "print('\\n'.join(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy alone; scipy is a test dependency.
    assert scipy_modules_loaded_by_cli_import() == []


def test_cli_import_does_not_load_scipy_optimize():
    # No command needs scipy.optimize, whose import adds about 8 MiB of RSS.
    assert "scipy.optimize" not in scipy_modules_loaded_by_cli_import()


def test_cli_import_does_not_load_scipy_spatial():
    # Match candidates come from binary searches of flat pixel indices; no
    # command needs scipy.spatial.
    assert "scipy.spatial" not in scipy_modules_loaded_by_cli_import()


def test_make_targets_loads_no_numpy_ma(tmp_path):
    # The tunnel-target check tests values elementwise; np.unique, which
    # loads numpy.ma, runs only to word an error.
    doc = {
        "images": [{"id": 1, "width": 40, "height": 30}],
        "annotations": [
            {
                "id": 1,
                "image_id": 1,
                "category_id": 0,
                "bbox": [5.0, 5.0, 20.0, 15.0],
                "segmentation": [[5, 5, 25, 5, 25, 20, 5, 20]],
            }
        ],
        "categories": [{"id": 0, "name": "thing"}],
    }
    ann = tmp_path / "annotations.json"
    ann.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys; from pointedge.cli import main; "
        f"code = main(['make-targets', {str(ann)!r}, '--out', {str(tmp_path / 'out')!r}, "
        "'--ratio', '0.5']); "
        "print(code, sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"
