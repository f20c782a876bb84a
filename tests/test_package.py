"""Tests for the package surface: every public name is declared once, in its
module's ``__all__``, and the package re-exports exactly those names."""

import fracdelay
from fracdelay import errors, fraccalc, oracle, repsolver, specfun, stability

MODULES = (errors, fraccalc, oracle, repsolver, specfun, stability)


def test_package_all_is_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert fracdelay.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fracdelay, name) is getattr(module, name), name


def test_delayed_ml_gen_many_importable_from_package():
    from fracdelay import delayed_ml_gen_many

    assert delayed_ml_gen_many is specfun.delayed_ml_gen_many
