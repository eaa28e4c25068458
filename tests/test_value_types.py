"""Every value type of the package is immutable, as the README says."""

import ast
from pathlib import Path

import deltainv

PACKAGE = Path(deltainv.__file__).resolve().parent

# running totals, updated in place as rows stream past
MUTABLE = {"CampaignSummary"}


def _dataclasses():
    """(module, class, frozen) for every ``@dataclass`` class in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                target = call.func if call else deco
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                frozen = call is not None and any(
                    kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                    for kw in call.keywords
                )
                found.append((path.stem, node.name, frozen))
    return found


def test_every_dataclass_is_frozen():
    found = _dataclasses()
    # the scan sees the package's dataclasses, the mutable one included
    assert ("delta", "DeltaResult", True) in found
    assert ("campaign", "CampaignSummary", False) in found
    thawed = [(m, c) for m, c, frozen in found if not frozen and c not in MUTABLE]
    assert thawed == []
