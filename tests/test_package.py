import types

import rbu


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rbu import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rbu.__all__)


def test_all_lists_every_public_name_once():
    # Submodules (rbu.cli, rbu.potential, ...) are reached by attribute, not exported.
    public = {
        name
        for name, value in vars(rbu).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rbu.__all__) == sorted(public)
