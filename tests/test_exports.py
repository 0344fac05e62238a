import importlib

import pytest

MODULES = ["uodual"] + [f"uodual.{m}" for m in ("cli", "convex", "fatou", "lattice", "measure", "orlicz")]

# public names that were deleted; none may come back through __all__
DELETED = {
    "uodual.lattice": ("meet", "join"),
    "uodual.orlicz": ("delta2_report", "Delta2Report", "ZeroDenominator"),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), (name, attr)
    for attr in DELETED.get(name, ()):
        assert attr not in module.__all__ and not hasattr(module, attr), (name, attr)

