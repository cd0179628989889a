import types

import torusfields


def test_star_import_binds_every_public_name_and_no_module():
    namespace = {}
    exec("from torusfields import *", namespace)
    namespace.pop("__builtins__")
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    public = {name for name in dir(torusfields) if not name.startswith("_")
              and not isinstance(getattr(torusfields, name), types.ModuleType)}
    assert set(namespace) == public
    assert {"meridian_periodicity", "real_roots", "build_report", "Scalar"} <= public
    # the submodules stay reachable as attributes
    assert isinstance(torusfields.dynamics, types.ModuleType)
