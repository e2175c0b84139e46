"""The public API surface: everything in __all__ must resolve."""

import importlib
import pkgutil

import pytest

import repro

# Every subpackage of repro, found on disk so a new one cannot be missed.
PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    module = importlib.import_module(package)
    assert list(module.__all__) == sorted(module.__all__), package


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The README's quickstart snippet must stay executable."""
    from repro import CTCR, Variant, make_instance, score_tree

    instance = make_instance(
        [
            {"a", "b", "c", "d", "e"},
            {"a", "b"},
            {"c", "d", "e", "f"},
            {"a", "b", "f", "g", "h"},
        ],
        weights=[2.0, 1.0, 1.0, 1.0],
    )
    variant = Variant.perfect_recall(0.8)
    tree = CTCR().build(instance, variant)
    tree.validate(universe=instance.universe, bound=instance.bound)
    assert score_tree(tree, instance, variant).normalized == 0.8
