"""Every cache in the package is one a measurement or a rule keeps.

A new ``functools.lru_cache`` (or a changed bound) shows up here as a test
diff, to be recorded with the figure that justifies it.
"""

import importlib
from pathlib import Path

import deltainv

PACKAGE = Path(deltainv.__file__).resolve().parent

# "module.name" -> maxsize, with what each one serves
AUDITED = {
    # the partitions a campaign draws from, built once per n
    "campaign._admissible": None,
    # numpy.random loads on first use; a campaign op is 2% slower without it
    "campaign._seeded_generator": None,
    # the oracle's subset-DP index tables per (n, blocks)
    "delta._dp_tables": 32,
    # the first stack's Haar starts per (n, count, seed)
    "delta._haar_starts": 32,
    # the Cayley step's identity; witness ops are 1.6% slower without it
    "delta._identity": None,
    # each partition's read-only block mask; witness ops are 1.2% slower
    # without it (2.637 against 2.605 ms, 7 of 8 alternating pairs)
    "delta._block_mask": None,
    # a and the off-block mask of each partition's gap
    "delta._gap_terms": None,
    # the canonical slot of every tensor entry, per n
    "tensors._slot_table": None,
}


def _caches() -> dict[str, object]:
    """Every module attribute with ``cache_info``, defined in its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"deltainv.{path.stem}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{path.stem}.{name}"] = obj.cache_parameters()["maxsize"]
    return found


def test_the_package_holds_exactly_the_audited_caches():
    assert _caches() == AUDITED
