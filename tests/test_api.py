import ceilprop
from ceilprop import analysis, bemt, core, fitting, io, leastsq, motor

MODULES = (core, bemt, motor, leastsq, fitting, analysis, io)


def test_package_exports_each_module_all_in_order():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert ceilprop.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ceilprop, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_cli_not_exported():
    assert "cli_dispatch" not in ceilprop.__all__
    assert not hasattr(ceilprop, "cli_dispatch")
