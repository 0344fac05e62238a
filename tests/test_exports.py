import dataclasses
import importlib

import pytest

MODULES = ["uodual"] + [f"uodual.{m}" for m in ("cli", "convex", "fatou", "lattice", "measure", "orlicz")]

# public names and attributes that were deleted; none may come back
DELETED = {
    "uodual": ("superlinear_growth", "young_gap"),
    "uodual.convex": (
        "ConjugateField.dual_point",
        "_pointwise",
        "golden_section_max",
        "_GOLDEN",
        "_GOLDEN_ITERS",
        "_RECENTRE_LEVELS",
        "_conjugates",
        "_SWEEP_TOL",
        "_BATCH_POINTS",
        "_lockstep",
        "ConjugateValue.argmax",
    ),
    "uodual.fatou": ("TestSequence.ae_convergent", "LscReport.to_dict"),
    "uodual.lattice": (
        "meet",
        "join",
        "Tail.mul",
        "TailVector.dot",
        "_tail_signed_sum",
        "_block",
        "_require_members",
    ),
    "uodual.measure": ("ProbabilitySpace.points", "ProbabilitySpace.weight_array"),
    "uodual.orlicz": (
        "OrliczFunction._knots",
        "delta2_report",
        "Delta2Report",
        "ZeroDenominator",
        "superlinear_growth",
        "GrowthReport",
        "young_gap",
        "_lower_hull",
        "_conjugate_values",
        "section_max",
    ),
}


def _resolves(module, dotted: str) -> bool:
    """Whether the dotted name is an attribute or a dataclass field.

    A frozen dataclass field without a default is no class attribute, so
    ``hasattr`` alone does not see it.
    """
    obj = module
    *path, last = dotted.split(".")
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    return hasattr(obj, last) or last in fields


def test_resolves_sees_fields_without_defaults():
    convex = importlib.import_module("uodual.convex")
    assert not hasattr(convex.ConjugateValue, "value")
    assert _resolves(convex, "ConjugateValue.value")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), (name, attr)
    for attr in DELETED.get(name, ()):
        assert attr not in module.__all__ and not _resolves(module, attr), (name, attr)
