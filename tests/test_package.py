"""The package's public names are exactly those its modules export, and
importing the command line loads no scipy module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pointedge

SRC = Path(__file__).resolve().parents[1] / "src"

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
