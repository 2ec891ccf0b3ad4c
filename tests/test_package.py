"""The package's public names are exactly those its modules export, its
version is declared once, importing the command line loads no scipy module,
and make-targets loads no numpy.ma."""

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


def scipy_modules_loaded_by_cli_import() -> list[str]:
    """The scipy modules ``import pointedge.cli`` loads in a fresh interpreter."""
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
