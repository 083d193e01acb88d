"""``eplab.__all__`` lists exactly the package's public bindings."""

import types

import eplab


def test_all_lists_exactly_the_public_bindings():
    # Every public attribute that is not a submodule, plus the version and
    # the errors module.
    public = {name for name, value in vars(eplab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(eplab.__all__) == len(set(eplab.__all__))
    assert set(eplab.__all__) == public | {"__version__", "errors"}
