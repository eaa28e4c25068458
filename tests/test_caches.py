"""Every cache in the package is one a measurement or a rule keeps.

A new ``functools.lru_cache`` (or a changed bound) shows up here as a test
diff, to be recorded with the figure that justifies it.
"""

import importlib
from pathlib import Path

import deltainv

PACKAGE = Path(deltainv.__file__).resolve().parent

# "module.name" -> maxsize, with what each one serves and its figure: an
# A/B against a copy without that one cache, on one pinned CPU (in-process
# medians of per-op times, or perfbench/run.py 10-s runs), alternating pairs
AUDITED = {
    # the partitions a campaign draws from, built once per n; without it
    # each CampaignConfig builds them again (76 us at n = 3..6): campaign's
    # setup_s goes from 0.133 to 0.247 s and op_p50 from 5.89 to 6.07 ms
    # (7 of 7 pairs each)
    "campaign._admissible": None,
    # numpy.random loads on first use; a campaign op is 2% slower without it
    "campaign._seeded_generator": None,
    # the oracle's subset-DP index tables per (n, blocks), 134-357 us to
    # build at n = 9..12; an oracle_grid op is 275 us without rebuilding them
    # and 451 us with (medians, 5 of 5 pairs)
    "delta._dp_tables": 32,
    # the first stack's Haar starts per (n, count, seed), 55 us to draw per
    # witness op; witness_sweep runs 261.9 ops/s with it and 248.2 without
    # (medians, 6 of 7 pairs)
    "delta._haar_starts": 32,
    # the Cayley step's identity; witness ops are 1.6% slower without it
    "delta._identity": None,
    # each partition's read-only block mask; witness ops are 1.2% slower
    # without it (2.637 against 2.605 ms, 7 of 8 alternating pairs)
    "delta._block_mask": None,
    # a and the off-block mask of each partition's gap; without it a
    # universal_check costs 32.9 us against 15.2, and a 100-sample campaign
    # op 6.09 ms against 4.19 (medians, 5 of 5 pairs each)
    "delta._gap_terms": None,
    # the canonical slot of every tensor entry, per n; without it
    # random_cubic_form costs 130 us against 5.0, and a campaign op 15.6 ms
    # against 4.25 (medians, 5 of 5 pairs each)
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
