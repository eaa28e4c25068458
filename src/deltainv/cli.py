"""Command-line front end.

Subcommands
-----------
delta               delta estimate for a tensor file and partition
verify              full inequality report (JSON or CSV)
matrix              quadratic-form matrices, minors and thresholds
construct-equality  emit an equality-attaining tensor from a params file
immersion-check     round-trip a tensor through its gradient-graph immersion
sample              randomized verification campaign, CSV output

Exit codes: 0 success, 1 verification failure (a gap below -1e-9 or not
finite, a delta or round-trip error that is not finite, a matrix minor or
least eigenvalue that is not finite as a float), 2 input error, which
includes a JSON input object (tensor file or entry, params file, campaign
config) with a missing or unknown key.
Errors, an option that argparse rejects included, are reported as one JSON
object on stderr; ``--help`` and ``--version`` print as usual.
The environment variable DELTAINV_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bounds import evaluate
from .campaign import CampaignConfig, CampaignSummary, campaign_csv, run_campaign
from .delta import DEFAULT_SEED, OptimizerOptions, delta_invariant
from .equality import EqualityParamsT1, EqualityParamsT2, build_t1, build_t2
from .errors import CaseMismatch, DeltainvError, FormatError
from .immersion import (
    lagrangian_check,
    lemma1_roundtrip,
    potential_from_tensor,
    second_fundamental_form_numeric,
)
from .quadforms import (
    STATEMENT_I,
    STATEMENT_II,
    THEOREM2,
    build_M,
    critical_C,
    psd_verdict,
    psd_verdict_minors,
)
from .tensors import CubicForm, PartitionSpec, _as_integer, _as_object
from .tensors import _as_real_array, finite_or_none

SEED_ENV = "DELTAINV_SEED"

_OPTIMIZER_DEFAULTS = OptimizerOptions()


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return _as_integer(int(raw), SEED_ENV, least=0)
    except ValueError:
        raise FormatError(f"{SEED_ENV} must be an integer, got {raw!r}")


def _parse_partition(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise FormatError(f"cannot parse partition {raw!r}; expected e.g. '2,3'")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}")


def _load_tensor(path: str) -> CubicForm:
    return CubicForm.from_json_dict(_load_json(path))


def _optimizer_options(args) -> OptimizerOptions:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        return OptimizerOptions(
            restarts=args.restarts, max_iters=args.max_iters, seed=seed
        )
    except ValueError as exc:
        raise FormatError(f"invalid optimizer option: {exc}")


def _add_optimizer_flags(parser):
    parser.add_argument(
        "--restarts", type=int, default=_OPTIMIZER_DEFAULTS.restarts,
        help="descent starts: identity, oracle permutation, then seeded "
        "random frames; the earliest best start wins (default %(default)s)",
    )
    parser.add_argument(
        "--max-iters", type=int, default=_OPTIMIZER_DEFAULTS.max_iters,
        help="most accepted steps per start; the README's `converged` "
        "paragraph gives every stopping rule (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"seed >= 0 of the random starts; defaults to "
                        f"${SEED_ENV} or {DEFAULT_SEED}")


def _all_finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


def _strict(numbers: dict) -> dict:
    """Strict JSON numbers: a value that is not finite becomes None (null)."""
    return {key: finite_or_none(v) for key, v in numbers.items()}


def _float_or_none(value) -> float | None:
    """An exact number as a strict JSON number: None when its float overflows."""
    try:
        return finite_or_none(float(value))
    except OverflowError:
        return None


def cmd_delta(args) -> int:
    h = _load_tensor(args.tensor)
    P = PartitionSpec(h.n, _parse_partition(args.partition))
    result = delta_invariant(h, args.c, P, _optimizer_options(args))
    print(json.dumps(result.to_json_dict(), indent=2, allow_nan=False))
    finite = _all_finite(result.value, result.certified_lower, result.tau_total)
    return 0 if finite else 1


def cmd_verify(args) -> int:
    h = _load_tensor(args.tensor)
    P = PartitionSpec(h.n, _parse_partition(args.partition))
    report = evaluate(h, args.c, P, _optimizer_options(args))
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())
    return 1 if report.violated else 0


def _fraction_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "value": float(value),
    }


def cmd_matrix(args) -> int:
    P = PartitionSpec(args.n, _parse_partition(args.partition))
    try:
        C = Fraction(args.C)
        float(2 * (C + 1)), float(2 * C - 1)  # the float matrices' extreme entries
    except (ValueError, ZeroDivisionError, OverflowError):
        raise FormatError(
            f"coefficient {args.C!r} must be a number with 2(C + 1) and 2C - 1 finite"
        )
    bundle = build_M(P, args.ell, C)
    psd, eig_min = psd_verdict(bundle)
    minors = [_float_or_none(d) for d in bundle.minors]
    thresholds = {}
    for case in (STATEMENT_I, STATEMENT_II, THEOREM2):
        try:
            thresholds[case] = _fraction_json(critical_C(P, bundle.ell, case))
        except CaseMismatch:  # the case does not fit the partition
            thresholds[case] = None
    out = {
        "n": P.n,
        "partition": list(P.blocks),
        "ell": args.ell,
        "C": _fraction_json(C),
        "M": bundle.M.tolist(),
        "Mprime": bundle.Mprime.tolist(),
        "minors": minors,
        "critical_C": thresholds[STATEMENT_I],
        "thresholds": thresholds,
        "psd": psd,
        "psd_by_minors": psd_verdict_minors(bundle),
        "min_eigenvalue": finite_or_none(eig_min),
    }
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0 if None not in minors and math.isfinite(eig_min) else 1


def cmd_construct_equality(args) -> int:
    P = PartitionSpec(args.n, _parse_partition(args.partition))
    data = _load_json(args.params)
    if args.theorem == 1:
        data = _as_object(data, "params", required=("lambdas",), optional=("inblock",))
        h = build_t1(EqualityParamsT1(P, **data))
    else:
        data = _as_object(data, "params", optional=("inblock", "traces"))
        h = build_t2(EqualityParamsT2(P, **data))
    print(json.dumps(h.to_json_dict(), indent=2))
    return 0


def cmd_immersion_check(args) -> int:
    a = _load_tensor(args.tensor)
    if args.at is not None:
        x = _as_real_array(_load_json(args.at), "the point")
        if not np.all(np.isfinite(x)):
            raise FormatError(f"{args.at} holds a non-finite coordinate")
    else:
        x = np.zeros(a.n)
    f = potential_from_tensor(a)
    errors = {
        "roundtrip_error": lemma1_roundtrip(a, x),
        "lagrangian_defect": lagrangian_check(f, x),
    }
    cross = {}
    if args.fd_crosscheck:
        exact = second_fundamental_form_numeric(f, x)
        fd = second_fundamental_form_numeric(f, x, fd=True)
        cross = {
            "roundtrip_error": float(np.max(np.abs(fd - a.dense_view))),
            "max_difference_vs_exact": float(np.max(np.abs(exact - fd))),
        }
    out = {"n": a.n, "point": x.tolist(), **_strict(errors)}
    if args.fd_crosscheck:
        out["fd_crosscheck"] = _strict(cross)
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0 if _all_finite(*errors.values(), *cross.values()) else 1


def cmd_sample(args) -> int:
    config = CampaignConfig.from_json_dict(_load_json(args.config), _default_seed)
    summary = CampaignSummary()
    if args.out:
        # opened before the run, so an unwritable path fails at once
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(campaign_csv(run_campaign(config), summary))
        except OSError as exc:
            raise FormatError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(campaign_csv(run_campaign(config), summary))
    print(json.dumps(summary.to_json_dict(), allow_nan=False), file=sys.stderr)
    return 1 if summary.violations else 0


class _Parser(argparse.ArgumentParser):
    """argparse whose option errors raise FormatError, so they reach the
    one JSON error object on stderr and exit 2; subparsers inherit it.
    ``--help`` and ``--version`` still print and exit 0."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # "-" and a digit or ".digit" is a value such as -1e-3 or -1/6;
        # argparse alone reads only -3 and -0.5 as numbers
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltainv",
        description=(
            "Delta-invariants of pointwise Lagrangian data, optimal curvature "
            "bounds, proof-machinery matrices and gradient-graph immersions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="delta estimate for a tensor file")
    p.add_argument("tensor", help="tensor JSON file")
    p.add_argument("--partition", required=True, help="block sizes, e.g. 2,3")
    p.add_argument("--c", type=float, default=0.0)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="inequality report for a tensor file")
    p.add_argument("tensor")
    p.add_argument("--partition", required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="quadratic-form matrices and thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--C", required=True, help="coefficient, e.g. 1/6 or 0.25")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("construct-equality", help="emit an equality witness")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--params", required=True, help="JSON parameter file")
    p.set_defaults(func=cmd_construct_equality)

    p = sub.add_parser("immersion-check", help="gradient-graph round trip")
    p.add_argument("--tensor", required=True)
    p.add_argument("--at", default=None, help="JSON file with the base point")
    p.add_argument("--fd-crosscheck", action="store_true")
    p.set_defaults(func=cmd_immersion_check)

    p = sub.add_parser("sample", help="randomized verification campaign")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out", default=None, help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # overflow in a huge but finite input gives a non-finite gap, which the
    # exit code and the reports already count as a violation
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except DeltainvError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
