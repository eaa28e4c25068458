"""Campaign determinism and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltainv import CubicForm, FormatError, InadmissiblePartition
from deltainv.campaign import (
    CampaignConfig,
    CampaignSummary,
    campaign_csv,
    run_campaign,
)
from deltainv.cli import main


# ---------------------------------------------------------------------------
# campaign engine
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(FormatError):
        CampaignConfig(seed=1, samples=0)
    with pytest.raises(FormatError):
        CampaignConfig(seed=1, samples=10, n_range=(1, 5))
    with pytest.raises(FormatError):
        CampaignConfig(seed=1, samples=10, c_values=())
    with pytest.raises(FormatError):
        CampaignConfig(seed=1, samples=10, tensor_scale=0.0)
    with pytest.raises(FormatError):
        CampaignConfig.from_json_dict({"seed": 1, "samples": 5, "bogus": 1})
    with pytest.raises(FormatError, match=r"missing campaign config fields: \['samples'\]"):
        CampaignConfig.from_json_dict({"seed": 1})
    with pytest.raises(FormatError, match="campaign config must be a JSON object"):
        CampaignConfig.from_json_dict([1, 2])


def test_campaign_rows_deterministic():
    config = CampaignConfig(seed=42, samples=50, n_range=(3, 4))
    s1, s2 = CampaignSummary(), CampaignSummary()
    text1 = campaign_csv(run_campaign(config), s1)
    text2 = campaign_csv(run_campaign(config), s2)
    assert text1 == text2
    assert s1.to_json_dict() == s2.to_json_dict()
    other = CampaignConfig(seed=43, samples=50, n_range=(3, 4))
    s3 = CampaignSummary()
    assert campaign_csv(run_campaign(other), s3) != text1


def test_campaign_gaps_nonnegative():
    config = CampaignConfig(seed=7, samples=300, n_range=(3, 5))
    summary = CampaignSummary()
    campaign_csv(run_campaign(config), summary)
    assert summary.samples == 300
    assert summary.min_gap >= -1e-9
    assert summary.violations == 0


def test_campaign_gaps_do_not_depend_on_c():
    # the c terms of a gap cancel, so a campaign at c = 1e17 measures what
    # one at c = 0 does, to rounding
    def gaps(c):
        config = CampaignConfig(seed=1, samples=300, n_range=(3, 6), c_values=[c])
        return [row.gap for row in run_campaign(config)]

    for g, ref in zip(gaps(1e17), gaps(0.0), strict=True):
        assert abs(g - ref) <= 1e-12 * abs(ref)


def test_campaign_explicit_partition_list():
    config = CampaignConfig(
        seed=5, samples=20, n_range=(4, 4), partitions=[(2, 2)]
    )
    for row in run_campaign(config):
        assert row.partition == (2, 2)


def test_campaign_pool_drops_partitions_that_do_not_fit_n():
    config = CampaignConfig(
        seed=3, samples=40, n_range=(3, 5), partitions=[(2,), (2, 2), (4,)]
    )
    seen = {(row.n, row.partition) for row in run_campaign(config)}
    allowed = {(3, (2,)), (4, (2,)), (4, (2, 2)), (5, (2,)), (5, (2, 2)), (5, (4,))}
    assert seen <= allowed and {n for n, _ in seen} == {3, 4, 5}


def test_campaign_rejects_dimension_without_partitions():
    with pytest.raises(InadmissiblePartition):
        CampaignConfig(seed=5, samples=5, n_range=(2, 3))


# ---------------------------------------------------------------------------
# CLI helpers
# ---------------------------------------------------------------------------


@pytest.fixture
def tensor_file(tmp_path, t1_witness_n3):
    h, _ = t1_witness_n3
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(h.to_json_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_delta(tensor_file, capsys):
    code, out, _ = run_cli(
        capsys, "delta", tensor_file, "--partition", "2", "--restarts", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.5, abs=1e-6)
    assert data["certified_lower"] == pytest.approx(1.5, abs=1e-9)
    assert data["converged"] is True


def test_cli_verify_zero_tensor(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(CubicForm.zero(3).to_json_dict()))
    code, out, _ = run_cli(
        capsys, "verify", str(path), "--partition", "2", "--restarts", "3"
    )
    assert code == 0
    data = json.loads(out)
    for row in data["rows"]:
        if row["gap"] is not None:
            assert row["gap"] >= 0.0


def test_cli_verify_json(tensor_file, capsys):
    code, out, _ = run_cli(
        capsys, "verify", tensor_file, "--partition", "2", "--restarts", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["sharp"] is True
    thm1 = [r for r in data["rows"] if r["source"] == "THEOREM1"][0]
    assert abs(thm1["gap"]) < 1e-6


def test_cli_verify_csv(tensor_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", tensor_file, "--partition", "2", "--format", "csv",
        "--restarts", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("partition,source,a_num")
    assert len(lines) == 5


def test_cli_matrix(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix", "--n", "3", "--partition", "2", "--ell", "1", "--C", "1/6",
    )
    assert code == 0
    data = json.loads(out)
    assert data["M"][0][0] == pytest.approx(1 / 3)
    assert data["Mprime"][1][1] == pytest.approx(7 / 3)
    assert data["thresholds"]["STATEMENT_II"]["num"] == 1
    assert data["thresholds"]["STATEMENT_II"]["den"] == 6
    assert data["psd"] is True and data["psd_by_minors"] is True


def test_cli_construct_equality_roundtrip(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambdas": [2.0]}))
    code, out, _ = run_cli(
        capsys,
        "construct-equality", "--theorem", "1", "--n", "3",
        "--partition", "2", "--params", str(params),
    )
    assert code == 0
    emitted = json.loads(out)
    again = CubicForm.from_json_dict(emitted)
    assert again.entries == {(1, 1, 3): 0.5, (2, 2, 3): 0.5, (3, 3, 3): 2.0}


def test_cli_construct_equality_t2(tmp_path, capsys):
    inblock = [np.zeros((2, 2, 2)).tolist(), np.zeros((2, 2, 2)).tolist()]
    inblock[0][0][0][0] = 4.0
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"inblock": inblock}))
    code, out, _ = run_cli(
        capsys,
        "construct-equality", "--theorem", "2", "--n", "4",
        "--partition", "2,2", "--params", str(params),
    )
    assert code == 0
    h = CubicForm.from_json_dict(json.loads(out))
    assert h.lookup(1, 3, 3) == pytest.approx(1.0)


def test_cli_immersion_check(tensor_file, capsys):
    code, out, _ = run_cli(
        capsys, "immersion-check", "--tensor", tensor_file, "--fd-crosscheck"
    )
    assert code == 0
    data = json.loads(out)
    assert data["roundtrip_error"] <= 1e-10
    assert data["lagrangian_defect"] <= 1e-12
    assert data["fd_crosscheck"]["max_difference_vs_exact"] <= 1e-8


def test_cli_immersion_check_at_point(tensor_file, tmp_path, capsys):
    at = tmp_path / "x.json"
    at.write_text("[0.1, 0.05, -0.1]")
    code, out, _ = run_cli(
        capsys, "immersion-check", "--tensor", tensor_file, "--at", str(at)
    )
    assert code == 0
    assert json.loads(out)["roundtrip_error"] <= 1e-6


@pytest.mark.parametrize("target", ["missing/gaps.csv", ""], ids=["missing-dir", "dir"])
def test_cli_sample_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch, target):
    # exit 1 means a bound violation; a path that cannot be written is an
    # input error, as an unreadable config is, and it is found before the run
    calls = []
    monkeypatch.setattr("deltainv.cli.run_campaign", lambda config: calls.append(config))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "samples": 3, "n_range": [3, 4]}))
    out_path = str(tmp_path / target)
    code, out, err = run_cli(capsys, "sample", "--config", str(cfg), "--out", out_path)
    assert code == 2 and out == ""
    error = _single_json_error(err)
    assert error["error"] == "FormatError"
    assert error["message"].startswith(f"cannot write {out_path}: ")
    assert calls == []


def test_cli_sample_pool_error_leaves_out_file_alone(tmp_path, capsys):
    # [4] fits no n of [3, 4]: the config is refused before --out is opened
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "samples": 3, "n_range": [3, 4], "partitions": [[4]]}
    ))
    out_path = tmp_path / "gaps.csv"
    out_path.write_bytes(b"keep")
    code, out, err = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out_path))
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "InadmissiblePartition"
    assert out_path.read_bytes() == b"keep"


def test_cli_sample_partition_no_n_admits_leaves_out_file_alone(tmp_path, capsys):
    # (2) fits n = 3 and 4, but (5) fits neither, so it could never be drawn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "samples": 3, "n_range": [3, 4], "partitions": [[2], [5]]}
    ))
    out_path = tmp_path / "gaps.csv"
    out_path.write_bytes(b"keep")
    code, out, err = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out_path))
    assert code == 2 and out == ""
    assert _single_json_error(err) == {
        "error": "InadmissiblePartition",
        "message": "no n in n_range [3, 4] admits partitions [[5]]",
    }
    assert out_path.read_bytes() == b"keep"


def test_cli_sample_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 42, "samples": 40, "n_range": [3, 4]}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, err1 = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out1))
    code2, _, err2 = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = json.loads(err1.strip().splitlines()[-1])
    assert summary["samples"] == 40
    assert summary["min_gap"] >= -1e-9


def test_cli_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"),
                           "--partition", "2")
    assert code == 2
    assert json.loads(err.strip())["error"] == "FormatError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(bad), "--partition", "2")
    assert code == 2

    good = tmp_path / "zero.json"
    good.write_text(json.dumps(CubicForm.zero(3).to_json_dict()))
    code, _, err = run_cli(capsys, "verify", str(good), "--partition", "9")
    assert code == 2
    assert json.loads(err.strip())["error"] == "InadmissiblePartition"


def _single_json_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verify", "{w}", "--partition", "2", "--restarts", "1e3"], "--restarts"),
        (["verify", "{w}", "--partition", "2", "--format", "xml"], "--format"),
        (["verify", "{w}"], "--partition"),
        (["bogus"], "bogus"),
        ([], "command"),
        # the descent has no tol: the resolution stop ends every restart a
        # gradient-norm stop could
        (["delta", "{w}", "--partition", "2", "--tol", "1e-9"], "--tol 1e-9"),
        (["verify", "{w}", "--partition", "2", "--tol", "1e-9"], "--tol 1e-9"),
    ],
    ids=["non-integer-restarts", "bad-choice", "missing-partition",
         "unknown-subcommand", "no-subcommand", "delta-tol", "verify-tol"],
)
def test_cli_rejected_option_is_one_json_error(tensor_file, capsys, argv, fragment):
    code, out, err = run_cli(capsys, *(a.format(w=tensor_file) for a in argv))
    assert code == 2 and out == ""
    payload = _single_json_error(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "FormatError" and fragment in payload["message"]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["--version"]])
def test_cli_help_and_version_still_print(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 0
    assert captured.out and captured.err == ""


def test_cli_overflowing_index_is_input_error(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text('{"n": 3, "entries": [{"idx": [1e400, 1, 1], "value": 1.0}]}')
    code, out, err = run_cli(capsys, "verify", str(path), "--partition", "2")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "IndexOutOfRange"


@pytest.mark.parametrize(
    "config",
    [
        [1, 2],
        {"seed": -1, "samples": 5},
        {"seed": 1, "samples": 5, "n_range": [3.7, 4]},
        {"seed": 1, "samples": 5, "n_range": [3]},
        {"seed": 1, "samples": 2.5},
        {"seed": 1, "samples": 3, "n_range": [3, 4], "tensor_scale": float("nan")},
        {"seed": 1, "samples": 3, "n_range": [3, 4], "tensor_scale": float("inf")},
        {"seed": 1, "samples": 3, "n_range": [3, 4], "tensor_scale": 1e308},
        {"seed": 1, "samples": 3, "n_range": [4, 4], "partitions": [[2.5]]},
        # [3, 2] fits no n of [3, 4] and every n of [5, 6]: rejected for both
        {"seed": 1, "samples": 3, "n_range": [3, 4], "partitions": [[3, 2], [2]]},
        {"seed": 1, "samples": 3, "n_range": [5, 6], "partitions": [[3, 2], [2]]},
        {"seed": 1, "samples": 3, "n_range": [5, 6], "partitions": [[], [2]]},
        {"seed": 1, "samples": 3, "n_range": [5, 6], "partitions": [[1, 2]]},
    ],
    ids=[
        "non-object",
        "negative-seed",
        "fractional-n_range",
        "short-n_range",
        "fractional-samples",
        "nan-tensor_scale",
        "infinite-tensor_scale",
        "overflowing-tensor_scale",
        "fractional-partition-block",
        "decreasing-partition-fitting-no-n",
        "decreasing-partition-fitting-every-n",
        "empty-partition",
        "partition-block-below-2",
    ],
)
def test_cli_sample_bad_config_is_input_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sample", "--config", str(path))
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


@pytest.mark.parametrize(
    "command, data, what",
    [
        ("sample", {"seed": True, "samples": 3, "n_range": [3, 4]}, "seed"),
        ("sample", {"seed": 1, "samples": True, "n_range": [3, 4]}, "samples"),
        ("sample", {"seed": 1, "samples": 3, "n_range": [3, True]}, "n_range"),
        ("sample", {"seed": 1, "samples": 3, "n_range": [4, 4], "partitions": [[True]]},
         "partition block"),
        ("verify", {"n": True, "entries": []}, "dimension"),
    ],
    ids=["seed", "samples", "n_range", "partition-block", "tensor-n"],
)
def test_cli_json_boolean_is_not_an_integer(tmp_path, capsys, command, data, what):
    """JSON true is a bool, which Python counts as the int 1; it must be
    refused as an input error, not run as 1."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "sample":
        code, out, err = run_cli(capsys, "sample", "--config", str(path))
    else:
        code, out, err = run_cli(capsys, "verify", str(path), "--partition", "2")
    assert code == 2 and out == ""
    assert _single_json_error(err) == {
        "error": "FormatError",
        "message": f"{what} must be an integer, got True",
    }


def _entry(value):
    return {"n": 3, "entries": [{"idx": [1, 1, 1], "value": value}]}


def _indexed(idx):
    return {"n": 3, "entries": [{"idx": idx, "value": 0.5}]}


@pytest.mark.parametrize(
    "command, data, what, value",
    [
        ("sample", {"seed": 1, "samples": 3, "n_range": [3, 4], "c_values": [True]},
         "c_values", True),
        ("sample", {"seed": 1, "samples": 3, "n_range": [3, 4], "tensor_scale": True},
         "tensor_scale", True),
        ("delta", _entry(True), "entry value", True),
        ("verify", _entry(True), "entry value", True),
        ("delta", _entry("1e3"), "entry value", "1e3"),
        ("immersion-check", ["0.1", 0, 0], "an entry of the point", "0.1"),
        ("immersion-check", [0.1, True, 0], "an entry of the point", True),
        ("theorem-1", {"lambdas": [True]}, "an entry of lambdas", True),
        ("theorem-1", {"lambdas": ["1e3"]}, "an entry of lambdas", "1e3"),
        ("theorem-2", {"inblock": [[[[True, 0], [0, 0]], [[0, 0], [0, 0]]], None]},
         "an entry of in-block array 1", True),
        ("theorem-2", {"traces": [["0", 0], None]},
         "an entry of declared traces for block 1", "0"),
        ("delta", _indexed([True, 2, 3]), "an index of triple [True, 2, 3]", True),
        ("verify", _indexed([1, "2", 3]), "an index of triple [1, '2', 3]", "2"),
    ],
    ids=["c_values", "tensor_scale", "delta-entry-value", "verify-entry-value",
         "entry-value-string", "at-string", "at-boolean", "lambdas-boolean",
         "lambdas-string", "inblock-boolean", "traces-string",
         "delta-index-boolean", "verify-index-string"],
)
def test_cli_json_boolean_or_string_is_not_a_number(
    tmp_path, capsys, tensor_file, command, data, what, value
):
    """float(True) is 1.0 and float("1e3") is 1000.0; JSON true and strings
    must be refused, not run as numbers, and neither may stand for an index."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    equality = ("construct-equality", "--params", str(path), "--theorem")
    argv = {
        "sample": ("sample", "--config", str(path)),
        "immersion-check": ("immersion-check", "--tensor", tensor_file, "--at", str(path)),
        "theorem-1": (*equality, "1", "--n", "3", "--partition", "2"),
        "theorem-2": (*equality, "2", "--n", "4", "--partition", "2,2"),
    }.get(command, (command, str(path), "--partition", "2"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    # equality parameters report every bad value as an InvariantViolation
    error = "InvariantViolation" if command.startswith("theorem") else "FormatError"
    kind = "a number"
    if what.startswith("an index"):
        error, kind = "IndexOutOfRange", "an integer"
    assert _single_json_error(err) == {
        "error": error,
        "message": f"{what} must be {kind}, got {value!r}",
    }


@pytest.mark.parametrize("command", ["sample", "delta"])
def test_cli_integer_beyond_float_range_is_input_error(tmp_path, capsys, command):
    # an integer literal is exact in JSON, but float() of it overflows
    path = tmp_path / "input.json"
    if command == "sample":
        path.write_text('{"seed": 1, "samples": 3, "c_values": [1' + "0" * 400 + "]}")
        code, out, err = run_cli(capsys, "sample", "--config", str(path))
    else:
        path.write_text(
            '{"n": 3, "entries": [{"idx": [1, 1, 1], "value": 1' + "0" * 400 + "}]}"
        )
        code, out, err = run_cli(capsys, "delta", str(path), "--partition", "2")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def test_cli_sample_integral_float_partition_block(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 1, "samples": 3, "n_range": [4, 4], "partitions": [[2.0]]}')
    code, out, err = run_cli(capsys, "sample", "--config", str(path))
    assert code == 0
    assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["2"] * 3


def test_cli_fractional_dimension_is_input_error(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text('{"n": 3.7, "entries": []}')
    code, out, err = run_cli(capsys, "verify", str(path), "--partition", "2")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def test_cli_sample_non_finite_gaps_are_violations(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "samples": 5, "n_range": [3, 4], "tensor_scale": 1e200}
    ))
    code, out, err = run_cli(capsys, "sample", "--config", str(cfg))
    assert code == 1
    assert out.count("nan") == 5
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["violations"] == 5
    assert summary["min_gap"] is None


@pytest.mark.parametrize("flag", ["--restarts", "--max-iters"])
def test_cli_zero_optimizer_option_is_input_error(tensor_file, capsys, flag):
    code, out, err = run_cli(capsys, "delta", tensor_file, "--partition", "2", flag, "0")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


# every --tol is an unknown option now, these included
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_non_finite_or_negative_tol_is_input_error(tensor_file, capsys, tol):
    code, out, err = run_cli(
        capsys, "delta", tensor_file, "--partition", "2", f"--tol={tol}"
    )
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify", "{w}", "--partition", "2", "--c"], "-1e-3"),
        (["verify", "{w}", "--partition", "2", "--c"], "-1E2"),
        (["verify", "{w}", "--partition", "2", "--c"], "-.5e1"),
        (["delta", "{w}", "--partition", "2", "--c"], "-2.5e-1"),
        (["matrix", "--n", "4", "--partition", "2,2", "--C"], "-1/6"),
    ],
    ids=["verify-exponent", "verify-capital-exponent", "verify-leading-point",
         "delta-exponent", "matrix-fraction"],
)
def test_cli_negative_number_is_a_value(tensor_file, capsys, argv, value):
    # c < 0 is the complex hyperbolic case; argparse alone reads only -3
    # and -0.5 as numbers, and took "-1e-3" for an unknown option
    argv = [a.format(w=tensor_file) for a in argv]
    spaced = run_cli(capsys, *argv, value)
    joined = run_cli(capsys, *argv[:-1], f"{argv[-1]}={value}")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[2] == ""


@pytest.mark.parametrize("number", ["1e400", "-1e400", "NaN"])
def test_cli_sample_non_finite_c_value_leaves_out_file_alone(tmp_path, capsys, number):
    # JSON 1e400 loads as inf: refused with the config, before --out opens
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "samples": 5, "c_values": [%s]}' % number)
    out_path = tmp_path / "gaps.csv"
    out_path.write_bytes(b"keep this")
    code, out, err = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(out_path))
    assert code == 2 and out == ""
    error = _single_json_error(err)
    assert error["error"] == "FormatError"
    assert error["message"].startswith("c_values must be finite, got ")
    assert out_path.read_bytes() == b"keep this"


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["delta", "verify"])
def test_cli_negative_seed_is_input_error(tensor_file, capsys, monkeypatch, command, source):
    argv = [command, tensor_file, "--partition", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("DELTAINV_SEED", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def test_cli_verify_reports_violations_with_exit_1(tensor_file, capsys, monkeypatch):
    import deltainv.cli as cli_mod
    from deltainv.bounds import BoundRow, InequalityReport
    from deltainv import PartitionSpec, delta_coordinate_oracle

    h = CubicForm.from_json_dict(json.loads(open(tensor_file).read()))
    P = PartitionSpec(3, (2,))
    delta = delta_coordinate_oracle(h, 0.0, P)

    def fake_evaluate(*args, **kwargs):
        row = BoundRow("THEOREM1", None, 0.0, -1.0)
        return InequalityReport(partition=P, c=0.0, hsq=1.0, delta=delta, rows=(row,))

    monkeypatch.setattr(cli_mod, "evaluate", fake_evaluate)
    code, _, _ = run_cli(capsys, "verify", tensor_file, "--partition", "2")
    assert code == 1


def test_cli_seed_env_default(tensor_file, capsys, monkeypatch):
    monkeypatch.setenv("DELTAINV_SEED", "123")
    code, out, _ = run_cli(
        capsys, "delta", tensor_file, "--partition", "2", "--restarts", "4"
    )
    assert code == 0
    monkeypatch.setenv("DELTAINV_SEED", "not-an-int")
    code, _, err = run_cli(
        capsys, "delta", tensor_file, "--partition", "2", "--restarts", "4"
    )
    assert code == 2


def test_cli_sample_seed_env_default(tmp_path, capsys, monkeypatch):
    # a config without "seed" takes DELTAINV_SEED; one with it never reads it
    unseeded, seeded = tmp_path / "unseeded.json", tmp_path / "seeded.json"
    unseeded.write_text(json.dumps({"samples": 5, "n_range": [3, 4]}))
    seeded.write_text(json.dumps({"seed": 17, "samples": 5, "n_range": [3, 4]}))
    monkeypatch.setenv("DELTAINV_SEED", "17")
    code, from_env, _ = run_cli(capsys, "sample", "--config", str(unseeded))
    assert code == 0
    monkeypatch.setenv("DELTAINV_SEED", "not-an-int")
    code, from_file, _ = run_cli(capsys, "sample", "--config", str(seeded))
    assert code == 0 and from_file == from_env
    code, out, err = run_cli(capsys, "sample", "--config", str(unseeded))
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so warnings reach its real stderr."""
    import deltainv

    env = dict(os.environ, PYTHONPATH=str(Path(deltainv.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "deltainv.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_sample_overflow_keeps_stderr_to_the_summary(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 1, "samples": 5, "n_range": [3, 4], "tensor_scale": 1e200}
    ))
    proc = run_cli_process("sample", "--config", str(cfg))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["violations"] == 5


# entries near 1e200 overflow every Gauss sum: delta, rhs and gaps are not finite
_OVERFLOWING_TENSOR = {"n": 3, "entries": [
    {"idx": [1, 1, 1], "value": 1e200},
    {"idx": [1, 2, 3], "value": -3e199},
    {"idx": [2, 2, 3], "value": 2e200},
]}


def test_cli_verify_overflow_writes_nothing_to_stderr(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_OVERFLOWING_TENSOR))
    proc = run_cli_process("verify", str(path), "--partition", "2", "--restarts", "3")
    assert proc.returncode == 1
    assert proc.stderr == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("command, exit_code", [("verify", 1), ("delta", 1)])
def test_cli_overflow_prints_strict_json(tmp_path, capsys, command, exit_code):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_OVERFLOWING_TENSOR))
    code, out, err = run_cli(
        capsys, command, str(path), "--partition", "2", "--restarts", "3"
    )
    assert code == exit_code and err == ""
    data = json.loads(out, parse_constant=_reject_constant)
    delta = data["delta"] if command == "verify" else data
    assert delta["value"] is None and delta["tau_total"] is None
    if command == "verify":
        assert data["hsq"] is None
        applicable = [r for r in data["rows"] if r["applicable"]]
        assert applicable and all(r["gap"] is None for r in applicable)
        assert {r["verdict"] for r in applicable} == {"violated"}


@pytest.mark.parametrize(
    "value",
    # one central difference of F keeps F_AB at the size of the entries, so
    # it stays finite up to the largest float
    [1e200, 1.5e308],
    ids=["1e200", "1.5e308"],
)
def test_cli_immersion_check_huge_entries_print_strict_json(tmp_path, capsys, value):
    path = tmp_path / "big.json"
    entries = [{"idx": [1, 2, 3], "value": value}, {"idx": [1, 1, 1], "value": value}]
    path.write_text(json.dumps({"n": 3, "entries": entries}))
    code, out, err = run_cli(
        capsys, "immersion-check", "--tensor", str(path), "--fd-crosscheck"
    )
    assert code == 0 and err == ""
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["roundtrip_error"] == 0.0
    cross = data["fd_crosscheck"]
    assert cross["roundtrip_error"] == cross["max_difference_vs_exact"] == 0.0


def test_cli_immersion_check_non_finite_error_exits_1(tensor_file, capsys, monkeypatch):
    monkeypatch.setattr("deltainv.cli.lemma1_roundtrip", lambda a, x: float("nan"))
    code, out, err = run_cli(
        capsys, "immersion-check", "--tensor", tensor_file, "--fd-crosscheck"
    )
    assert code == 1 and err == ""
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["roundtrip_error"] is None
    assert data["fd_crosscheck"]["max_difference_vs_exact"] <= 1e-8


@pytest.mark.parametrize(
    "theorem, partition, params",
    [
        (1, "2", {"lambdas": 5}),
        (1, "2", {"lambdas": "ab"}),
        (1, "2", {"lambdas": None}),
        (1, "2", {"lambdas": [1], "inblock": 7}),
        (1, "2", {"lambdas": [1], "inblock": [[["a"]]]}),
        (2, "2,2", {"traces": [[1, "x"], None]}),
        (2, "2,2", {"traces": [[float("nan"), 0], None]}),
    ],
    ids=["scalar-lambdas", "string-lambdas", "null-lambdas", "scalar-inblock",
         "string-inblock-entry", "string-trace", "nan-trace"],
)
def test_cli_construct_equality_bad_params_is_input_error(
    tmp_path, capsys, theorem, partition, params
):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    n = "3" if theorem == 1 else "4"
    code, out, err = run_cli(
        capsys, "construct-equality", "--theorem", str(theorem), "--n", n,
        "--partition", partition, "--params", str(path),
    )
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "InvariantViolation"


@pytest.mark.parametrize(
    "theorem, params, message",
    [
        (1, {"lambda": [2.0]}, "missing params fields: ['lambdas']"),
        (1, {"lambdas": [2.0], "traces": None}, "unknown params fields: ['traces']"),
        (2, {"inblocks": None}, "unknown params fields: ['inblocks']"),
        (2, {"lambdas": [2.0]}, "unknown params fields: ['lambdas']"),
    ],
    ids=["t1-missing", "t1-extra", "t2-misspelled", "t2-extra"],
)
def test_cli_construct_equality_params_keys_are_checked(
    tmp_path, capsys, theorem, params, message
):
    """A key the theorem does not read is refused, not ignored."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    n, partition = ("3", "2") if theorem == 1 else ("4", "2,2")
    code, out, err = run_cli(
        capsys, "construct-equality", "--theorem", str(theorem), "--n", n,
        "--partition", partition, "--params", str(path),
    )
    assert code == 2 and out == ""
    assert _single_json_error(err) == {"error": "FormatError", "message": message}


_ENTRY = {"idx": [3, 3, 3], "value": 2.0}


@pytest.mark.parametrize("command", ["verify", "delta"])
@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 3, "entires": [_ENTRY]}, "unknown tensor fields: ['entires']"),
        ({"n": 3, "entries": [{**_ENTRY, "weight": 1}]},
         "unknown tensor entry fields: ['weight']"),
        ({"n": 3, "entries": [{"idx": [3, 3, 3], "val": 2.0}]},
         "missing tensor entry fields: ['value']"),
    ],
    ids=["misspelled-entries", "extra-entry-key", "misspelled-value"],
)
def test_cli_tensor_keys_are_checked(tmp_path, capsys, command, data, message):
    """A misspelled "entries" must not load as the zero tensor."""
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command, str(path), "--partition", "2")
    assert code == 2 and out == ""
    assert _single_json_error(err) == {"error": "FormatError", "message": message}


@pytest.mark.parametrize(
    "point",
    ['{"a": 1}', '["x", "y", "z"]', "[1e400, 0, 0]"],
    ids=["object", "strings", "overflowing"],
)
def test_cli_immersion_check_bad_point_is_input_error(tensor_file, tmp_path, capsys, point):
    path = tmp_path / "at.json"
    path.write_text(point)
    code, out, err = run_cli(
        capsys, "immersion-check", "--tensor", tensor_file, "--at", str(path)
    )
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def test_cli_matrix_overflowing_coefficient_is_input_error(capsys):
    code, out, err = run_cli(capsys, "matrix", "--n", "4", "--partition", "2", "--C", "1e400")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


@pytest.mark.parametrize("C", ["9e307", "1e308", "-9e307"])
def test_cli_matrix_coefficient_with_overflowing_entries_is_input_error(capsys, C):
    # C itself fits in a float, but 2(C + 1) or 2C - 1 does not
    code, out, err = run_cli(capsys, "matrix", "--n", "4", "--partition", "2", f"--C={C}")
    assert code == 2 and out == ""
    assert _single_json_error(err)["error"] == "FormatError"


def test_cli_matrix_infinite_eigenvalue_prints_null(capsys):
    # the entries -1.6e308 are finite, but the eigen-solve overflows
    code, out, err = run_cli(capsys, "matrix", "--n", "4", "--partition", "2", "--C=-8e307")
    assert code == 1 and err == ""
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["min_eigenvalue"] is None and data["psd"] is False
    assert all(isinstance(d, float) for d in data["minors"])


def test_cli_matrix_overflowing_minor_prints_null(capsys):
    # the exact minors divide by 2C - 1 = 10^-300 and overflow a float
    C = f"{10**300 + 1}/{2 * 10**300}"
    code, out, err = run_cli(capsys, "matrix", "--n", "4", "--partition", "2", f"--C={C}")
    assert code == 1 and err == ""
    data = json.loads(out, parse_constant=_reject_constant)
    assert None in data["minors"]
    assert all(d is None or isinstance(d, float) for d in data["minors"])
    assert data["min_eigenvalue"] is not None
