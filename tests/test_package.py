"""The package's public names are exactly those its modules export."""

import importlib

import pointedge

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
