"""The package root re-exports each layer module's ``__all__`` by star import."""

import nhlattice
from nhlattice import analysis, dynamics, lattice, protocols

#: the modules ``nhlattice/__init__.py`` star-imports
STAR_IMPORTED = (lattice, dynamics, analysis, protocols)


def test_module_exports_exist_and_are_disjoint():
    # a name in two lists would silently shadow one of them at the root
    owner = {}
    for module in STAR_IMPORTED:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            assert name not in owner, f"{name!r} is in {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def test_root_exports_are_the_union_of_module_exports():
    union = {name for module in STAR_IMPORTED for name in module.__all__}
    submodules = {"lattice", "dynamics", "analysis", "protocols", "configio"}
    assert sorted(nhlattice.__all__) == sorted(union | {"ConfigError"} | submodules)
    for module in STAR_IMPORTED:
        for name in module.__all__:
            assert getattr(nhlattice, name) is getattr(module, name)
