"""The package's export list."""
import types

import dunkldirac


def test_all_names_the_public_api_once():
    names = dunkldirac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(dunkldirac, name), name
    public = {k for k, v in vars(dunkldirac).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == public
