import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import moelab
from moelab import capacity, cli, defaults, verify
from moelab.cli import main
from oracles import fnv1a64_reference, numpy_blas, openblas_kernel, rowwise_csv

SRC = Path(moelab.__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def _no_training(*args, **kwargs):
    raise AssertionError("a usage error must be found before any training")


def _no_sampling(*args, **kwargs):
    raise AssertionError("a usage error must be found before any sampling")


def _no_bounds(*args, **kwargs):
    raise AssertionError("a usage error must be found before any bound is computed")


def refuses(argv, tmp_path, existing, capsys) -> None:
    """argv exits 2 naming the one existing output, which is left as it was
    and is all tmp_path holds."""
    path = tmp_path / existing
    path.write_text("kept\n")
    assert run(argv) == 2
    assert f"error: refusing to overwrite {path} (pass --force)" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [existing]
    assert path.read_text() == "kept\n"


def refuses_bad_directory(argv, out_name, tmp_path, capsys) -> None:
    """argv with --out in a missing directory, then in a 'directory' that
    is a regular file, exits 2 naming the output and writes nothing."""
    (tmp_path / "file").write_text("kept\n")
    for parent, why in (("nodir", "does not exist"), ("file", "is not a directory")):
        out = tmp_path / parent / out_name
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {out.parent} {why}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


# Cells of one type each; the writer gives a column one numpy dtype.  Floats
# cover +-0.0, subnormals, 1e16 and above, NaN and +-inf.  Ints stay in int64
# and no string ends in NUL: test_a_column_takes_one_numpy_dtype shows why.
CELLS = {
    "float": st.floats(),
    "int": st.integers(-2**63, 2**63 - 1),
    "bool": st.booleans(),
    "numpy bool": st.booleans().map(np.bool_),
    "str": st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
}


@st.composite
def csv_columns(draw):
    """Named columns of one length, each a list or an array of one cell type."""
    length = draw(st.integers(0, 6))
    columns = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))):
        col = draw(st.lists(CELLS[kind], min_size=length, max_size=length))
        columns[f"{kind} {k}"] = np.array(col) if draw(st.booleans()) else col
    return columns


class TestCsvWriter:
    @given(csv_columns())
    @example({"float": [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308,
                        math.nan, math.inf, -math.inf, 0.1]})
    @example({"int": np.arange(3), "bool": [True, False, True], "numpy bool": np.array([False, True, True]),
              "str": ["token_pair", "a,b", 'say "x"']})
    def test_columns_give_the_bytes_of_the_row_writer(self, columns):
        rows = [list(columns), *zip(*columns.values())]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "columns.csv"), Path(tmp, "rows.csv")
            cli._write_csv(got, columns, 0, {})
            rowwise_csv(want, rows)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("column, written, rowwise", [
        ([0, 0.5], "0.0\n0.5\n", "0\n0.5\n"),  # ints and floats make a float column
        ([0, 2**63], "0.0\n9.223372036854776e+18\n", "0\n9223372036854775808\n"),  # past int64 too
        (["a\x00", "b\x00c"], "a\nb\x00c\n", "a\x00\nb\x00c\n"),  # a numpy string drops a trailing NUL
    ])
    def test_a_column_takes_one_numpy_dtype(self, column, written, rowwise, tmp_path):
        cli._write_csv(tmp_path / "columns.csv", {"x": column}, 0, {})
        rowwise_csv(tmp_path / "rows.csv", [["x"], *([v] for v in column)])
        assert (tmp_path / "columns.csv").read_text() == "x\n" + written
        assert (tmp_path / "rows.csv").read_text() == "x\n" + rowwise


DIM_AND_EXPERTS = ["--dim", "16", "--experts", "8"]


@pytest.mark.parametrize("argv, message", [
    (["route-sim"], "route-sim requires --out"),
    (["train-toy"], "train-toy requires --out"),
    (["comm-sim"], "comm-sim requires --out"),
    (["capacity", "--grid", "0.1:0.5", *DIM_AND_EXPERTS, "--out", "c.csv"],
     "--grid expects START:STOP:COUNT, got '0.1:0.5'"),
    (["capacity", "--grid", "0.1:0.5:x", *DIM_AND_EXPERTS, "--out", "c.csv"],
     "bad --grid '0.1:0.5:x': invalid literal for int() with base 10: 'x'"),
    (["capacity", "--grid", "0.5:0.1:3", *DIM_AND_EXPERTS, "--out", "c.csv"],
     "--grid needs 0 < START < STOP < 1 and COUNT >= 2, got '0.5:0.1:3'"),
    (["capacity", "--grid", "0.1:0.5:3", *DIM_AND_EXPERTS], "--grid output is CSV; pass --out"),
    (["capacity", *DIM_AND_EXPERTS], "capacity requires --delta (or --grid)"),
    (["train-toy", "--config", "c.json", "--out", "run.csv"],
     "config value router='nope' is not one of hash, switch, loc"),
])
def test_usage_error_is_one_error_line_and_writes_nothing(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"router": "nope"}))
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv, name, message", [
    (["capacity", "--delta", "0.1", "--dim", "64", "--experts", "4", "--mc-samples", "1000000000000"],
     "mc_p_delta", "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"),
    (["route-sim", "--router", "hash", "--tokens", "1000000000000"], "sample_unit_sphere", ""),
], ids=["capacity-mc-samples", "route-sim-tokens"])
def test_running_out_of_memory_is_a_runtime_error(argv, name, message, tmp_path, capsys, monkeypatch):
    # the library call that would allocate raises instead, so no large allocation is made
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(capacity, name, out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "out.json"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory" + (f": {message}" if message else "") + "\n")
    assert list(tmp_path.iterdir()) == []


BEYOND_INT64 = str(2**63)


@pytest.mark.parametrize("argv", [
    ["train-toy", "--router", "hash", "--epochs", "1", "--tokens-per-cluster", BEYOND_INT64],
    ["train-toy", "--router", "hash", "--epochs", "1", "--nodes", BEYOND_INT64],
    ["train-toy", "--router", "loc", "--devices-per-node", BEYOND_INT64],
    ["comm-sim", "--compare-routers", "--epochs", "1", "--tokens-per-cluster", BEYOND_INT64],
], ids=["tokens-per-cluster", "nodes", "devices-per-node", "compare-routers-tokens-per-cluster"])
def test_an_int_beyond_int64_is_one_error_line(argv, tmp_path, capsys, monkeypatch):
    # argparse's int takes it and numpy's int64 does not: a usage or runtime
    # error either way, never a traceback
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "out.csv"]) in (1, 2)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", [("train-toy", "lr"), ("route-sim", "noise-std")])
def test_config_int_too_large_for_a_float_flag_is_usage_error(command, key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(f'{{"{key}": {"9" * 400}}}')
    assert run([command, "--config", "c.json", "--out", "out.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: config value {key} is too large for a float\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestOneParser:
    """main builds its parser once and reuses it; a --config file fills in one
    call's values without changing the parser."""

    def test_main_builds_its_parser_at_most_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 0.1, "dim": 16, "experts": 4}))
        for argv, code in ((["capacity", "--delta", "0.1", *DIM_AND_EXPERTS], 0),
                           (["capacity", "--config", str(config)], 0),
                           (["capacity", "--dim", "x"], 2),
                           (["verify", "--only", "nope"], 2)):
            assert run(argv) == code
        capsys.readouterr()
        assert built.count("moelab") <= 1

    def test_config_values_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 0.3, "dim": 128, "experts": 4}))
        assert run(["capacity", "--config", str(config), "--out", str(tmp_path / "a.json")]) == 0
        assert run(["capacity", "--dim", "64", "--out", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr() == ("", "error: capacity requires --dim and --experts\n")
        assert not (tmp_path / "b.json").exists()
        config.write_text(json.dumps({"lr": 0.5}))
        small = ["--router", "hash", "--epochs", "1", "--tokens-per-cluster", "16"]
        assert run(["train-toy", *small, "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 0
        assert run(["train-toy", *small, "--out", str(tmp_path / "d.csv")]) == 0
        assert json.loads((tmp_path / "c.csv.meta.json").read_text())["config"]["lr"] == 0.5
        assert json.loads((tmp_path / "d.csv.meta.json").read_text())["config"]["lr"] == defaults.DEFAULT_LR

    def test_a_flag_given_at_its_default_wins_over_the_config(self, tmp_path):
        # the given values equal the defaults, and the small int and the short
        # string may even be the default objects: only "was it given" tells
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"lr": 0.5, "router": "hash", "seed": 3}))
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--config", str(config), "--lr", str(defaults.DEFAULT_LR),
                    "--router", "loc", "--seed", str(defaults.DEFAULT_SEED),
                    "--epochs", "1", "--tokens-per-cluster", "16", "--out", str(out)]) == 0
        recorded = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert {key: recorded["config"][key] for key in ("lr", "router", "seed")} == {
            "lr": defaults.DEFAULT_LR, "router": "loc", "seed": defaults.DEFAULT_SEED}

    def test_a_flag_beside_a_config_is_still_parsed_by_its_type(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 0.1, "dim": 64, "experts": 8}))
        assert run(["capacity", "--config", str(config), "--dim", "x",
                    "--out", str(tmp_path / "cap.json")]) == 2
        err = capsys.readouterr().err
        assert err.endswith("moelab capacity: error: argument --dim: invalid int value: 'x'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestCapacityCommand:
    def test_json_query(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        code = run(["capacity", "--delta", "0.03", "--dim", "4096",
                    "--experts", "16", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tool"] == "moelab"
        assert payload["config"]["delta"] == 0.03
        result = payload["result"]
        assert 0.0 < result["p_delta"] < 1.0
        assert result["erfc_bound"] > result["exp_bound"]

    def test_grid_writes_csv_with_requested_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["capacity", "--grid", "0.01:0.5:50", "--dim", "512",
                    "--experts", "16", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51  # header + 50 grid rows
        assert lines[0].startswith("delta,")
        assert (tmp_path / "curve.csv.meta.json").exists()
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_a_dim_whose_cap_probability_underflows_is_unbounded(self, capsys):
        # at d = 1e300 p_delta is 0 in double precision: the bound is infinite, not a failure
        assert run(["capacity", "--delta", "0.1", "--dim", "1" + "0" * 300, "--experts", "4"]) == 0
        out, err = capsys.readouterr()
        result = json.loads(out)["result"]
        assert err == ""
        assert (result["p_delta"], result["ec_min"], result["unbounded"]) == (0.0, math.inf, True)

    def test_missing_dim_is_usage_error(self, capsys):
        assert run(["capacity", "--delta", "0.1", "--experts", "8"]) == 2
        assert "dim" in capsys.readouterr().err

    def test_mc_cross_check_embedded(self, tmp_path):
        out = tmp_path / "cap.json"
        code = run(["capacity", "--delta", "0.25", "--dim", "16", "--experts", "4",
                    "--mc-samples", "20000", "--seed", "3", "--out", str(out)])
        assert code == 0
        mc = json.loads(out.read_text())["result"]["mc_p_delta"]
        assert mc["n_samples"] == 20000
        assert mc["z_vs_analytic"] <= 4.0

    def test_stdout_when_no_out(self, capsys):
        assert run(["capacity", "--delta", "0.1", "--dim", "64", "--experts", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["p_delta"] > 0

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        assert run(["capacity", "--delta", "0.25", "--dim", "16", "--experts", "4",
                    "--mc-samples", "100", "--seed", "-1", "--out", str(out)]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, message", [
        (["--delta", "0.1", "--dim", "1", "--experts", "8"], "dim must be >= 2, got 1"),
        (["--delta", "0.1", "--dim", "16", "--experts", "0"], "n_experts must be >= 1, got 0"),
        (["--delta", "1.5", "--dim", "16", "--experts", "8"], "delta must lie in [0, 1], got 1.5"),
        (["--grid", "0.1:0.5:3", "--dim", "1", "--experts", "8"], "dim must be >= 2, got 1"),
        (["--delta", "0.1", "--dim", "16", "--experts", "8", "--mc-samples", "0"],
         "--mc-samples must be >= 1, got 0"),
        (["--delta", "0.1", "--dim", "16", "--experts", "8", "--mc-samples", "-3"],
         "--mc-samples must be >= 1, got -3"),
    ])
    def test_out_of_range_values_are_usage_errors(self, argv, message, tmp_path, capsys):
        out = tmp_path / "cap.out"
        assert run(["capacity", *argv, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, message", [
        ("dim", "dim is too large for a float"),
        ("experts", "n_experts is too large for a float"),
        ("mc-samples", f"--mc-samples must be <= {sys.maxsize}, numpy's largest length"),
    ], ids=["dim", "experts", "mc-samples"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_value_too_large_is_usage_error(self, key, message, source, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        values = {"delta": 0.1, "dim": 64, "experts": 4, key: 10**400}
        if source == "flag":
            argv = [f"--{name}={value}" for name, value in values.items()]
        else:
            (tmp_path / "c.json").write_text(json.dumps(values))
            argv = ["--config", "c.json"]
        assert run(["capacity", *argv, "--out", "cap.json"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == (["c.json"] if source == "config" else [])

    @pytest.mark.parametrize("flag, value", [("--delta", "0.1"), ("--mc-samples", "100")])
    def test_flag_the_grid_never_reads_is_usage_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["capacity", "--grid", "0.1:0.5:3", "--dim", "16", "--experts", "8",
                    flag, value, "--out", str(out)]) == 2
        assert f"error: {flag} does not apply with --grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_that_repeats_values_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 100 points between 0.5 and its second float above round onto repeats
        def no_curve(*args, **kwargs):
            raise AssertionError("a usage error must be found before any bound is computed")
        monkeypatch.setattr(capacity, "ec_min", no_curve)
        out = tmp_path / "curve.csv"
        assert run(["capacity", "--grid", "0.5:0.5000000000000002:100", "--dim", "16",
                    "--experts", "4", "--out", str(out)]) == 2
        assert "error: --grid '0.5:0.5000000000000002:100' does not give strictly increasing" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("query, existing", [
        (["--grid", "0.1:0.5:3"], "curve.out.meta.json"),
        (["--delta", "0.1", "--mc-samples", "100"], "curve.out"),
    ])
    def test_existing_output_is_refused_before_any_bound_is_computed(self, query, existing, tmp_path,
                                                                     capsys, monkeypatch):
        for name in ("ec_min", "mc_p_delta"):
            monkeypatch.setattr(capacity, name, _no_bounds)
        refuses(["capacity", *query, "--dim", "16", "--experts", "8", "--out", str(tmp_path / "curve.out")],
                tmp_path, existing, capsys)

    @pytest.mark.parametrize("query", [["--grid", "0.1:0.5:3"], ["--delta", "0.1", "--mc-samples", "100"]])
    def test_output_without_a_directory_is_refused_before_any_bound_is_computed(self, query, tmp_path,
                                                                                 capsys, monkeypatch):
        for name in ("ec_min", "mc_p_delta"):
            monkeypatch.setattr(capacity, name, _no_bounds)
        refuses_bad_directory(["capacity", *query, "--dim", "16", "--experts", "8"], "curve.out",
                              tmp_path, capsys)


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert run(["verify", "--only", "cap-identity"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.CHECKS, "cap-identity",
                            lambda seed: verify.CheckResult("cap-identity", False, "injected"))
        assert run(["verify", "--only", "cap-identity"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_capacity_bounds_pass_on_the_grid(self, capsys):
        assert run(["verify", "--only", "capacity-bounds"]) == 0
        assert "capacity-bounds  PASS  erfc-form > exp-form at 25 points;" in capsys.readouterr().out

    def test_capacity_bounds_makes_one_ec_min_call_per_dim(self, monkeypatch):
        real, calls = capacity.ec_min, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(capacity, "ec_min", counted)
        assert verify.check_capacity_bounds().passed
        assert len(calls) == 5
        assert [(np.size(delta), dim) for delta, dim, _ in calls] == [(5, d) for d in (256, 512, 1024, 2048, 4096)]

    def test_capacity_bounds_failure_is_a_fail_row(self, capsys, monkeypatch):
        # ec_min raises where the erfc form is not above the exp form
        monkeypatch.setattr(capacity, "erfc", lambda y: 1.0)
        assert run(["verify", "--only", "capacity-bounds"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(
            "capacity-bounds  FAIL  erfc-form bound 0.0625 not above exp-form 0.103")
        assert captured.out.endswith(" at (0.0625, 256)\n")
        assert captured.err == ""

    @pytest.mark.parametrize("seed", [0, 1, 14])
    def test_monte_carlo_verdicts_follow_their_z(self, seed, capsys, monkeypatch):
        # each verdict must match its z, PASS or FAIL: a 3-sigma test fails on some
        # seeds, as uniform-balance does at seed 14 with these sample counts
        samples = 2000
        monkeypatch.setattr(verify, "_BALANCE_SAMPLES", samples)
        monkeypatch.setattr(verify, "_MC_SAMPLES", samples)
        z_balance = []
        for dim, n in ((64, 8), (128, 16)):
            f, sigma = capacity.mc_assignment_fractions(dim, n, samples, seed=seed)
            z_balance.append(float(np.abs(f - 1.0 / n).max() / sigma))
        z_mc = 0.0
        for i, (delta, dim) in enumerate(verify._MC_GRID):
            analytic = capacity.p_delta(delta, dim)
            est, stderr = capacity.mc_p_delta(delta, dim, samples, seed=seed + i)
            z_mc = max(z_mc, abs(est - analytic) / max(stderr, 1e-12))

        for suite, z, texts in (
            ("uniform-balance", max(z_balance), [f"max|f-1/n|={z:.2f} sigma" for z in z_balance]),
            ("cap-probability-mc", z_mc, [f"= {z_mc:.2f} sigma"]),
        ):
            code = run(["verify", "--only", suite, "--seed", str(seed)])
            name, status, detail = capsys.readouterr().out.split(None, 2)
            assert (name, status, code) == ((suite, "PASS", 0) if z <= 3.0 else (suite, "FAIL", 1))
            for text in texts:
                assert text in detail

    @staticmethod
    def _nan_at(name, where):
        """capacity.<name> with NaN in its float outputs where ``where(*args)`` holds."""
        real = getattr(capacity, name)

        def nan_here(*args, **kwargs):
            got = real(*args, **kwargs)
            if not np.any(where(*args)):
                return got
            if name == "ec_min":  # NaN at each delta where it holds
                return dataclasses.replace(got, erfc_bound=np.where(where(*args), math.nan, got.erfc_bound))
            est, spread = got
            return est * math.nan, spread

        return nan_here

    @pytest.mark.parametrize("suite, name, where, text", [
        ("uniform-balance", "mc_assignment_fractions", lambda dim, n, *_: n == 16,
         "; (d=128,n=16) max|f-1/n|=nan sigma"),
        ("cap-probability-mc", "mc_p_delta", lambda delta, *_: delta == 0.1,
         "  10 cases, worst |mc-analytic| = nan sigma at (0.1, 64)"),
        ("cap-probability-mc", "mc_p_delta", lambda delta, *_: delta == 0.015625,
         "  10 cases, worst |mc-analytic| = nan sigma at (0.015625, 4096)"),
        ("capacity-bounds", "ec_min", lambda delta, dim, n: (dim == 1024) & (delta == 2.0 / 32),
         "  NaN bound at (0.0625, 1024)"),
    ], ids=["uniform-balance", "cap-probability-mc", "cap-probability-mc-odd-case", "capacity-bounds"])
    def test_a_nan_fails_its_suite_and_is_named(self, suite, name, where, text, capsys, monkeypatch):
        monkeypatch.setattr(capacity, name, self._nan_at(name, where))
        assert run(["verify", "--only", suite]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{suite}  FAIL") and out.endswith(f"{text}\n")

    @pytest.mark.parametrize("seed", [0, 1, 14])
    def test_forked_monte_carlo_suites_equal_the_in_order_suites(self, seed, monkeypatch):
        monkeypatch.setattr(verify, "_BALANCE_SAMPLES", 2000)
        monkeypatch.setattr(verify, "_MC_SAMPLES", 2000)
        suites = (verify.check_uniform_balance, verify.check_cap_probability_mc)
        monkeypatch.setattr(verify, "usable_cpus", lambda: 4)  # forks whatever this host's CPU count
        forked = [suite(seed) for suite in suites]
        monkeypatch.setattr(verify, "usable_cpus", lambda: 1)
        assert forked == [suite(seed) for suite in suites]

    def test_a_worker_that_dies_is_one_error_line(self, capfd, monkeypatch):
        monkeypatch.setattr(verify, "_BALANCE_SAMPLES", 2000)
        monkeypatch.setattr(verify, "_MC_SAMPLES", 2000)
        monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
        real, caller = capacity.mc_p_delta, os.getpid()

        def exit_in_a_worker(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(capacity, "mc_p_delta", exit_in_a_worker)
        assert run(["verify"]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []

    # `verify --seed 7`, which fails uniform-balance, pinned with the
    # OpenBLAS that numpy bundles, running its SkylakeX kernel, as the
    # probe pins are; another BLAS may round the gating products and the
    # gradient check differently, so elsewhere the pin is skipped.
    PINNED_BLAS = ("scipy-openblas", "0.3.31.188.0")
    PINNED_KERNEL = "SkylakeX"
    PINNED_SEED_7 = (
        "uniform-balance     FAIL  (d=64,n=8) max|f-1/n|=3.02 sigma; (d=128,n=16) max|f-1/n|=2.47 sigma\n"
        "cap-probability-mc  PASS  10 cases, worst |mc-analytic| = 1.04 sigma at (0.35, 10)\n"
        "cap-identity        PASS  max abs err 8.44e-15\n"
        "capacity-bounds     PASS  erfc-form > exp-form at 25 points; max rel gap of erfc form above exact: 6.99e-02\n"
        "grad-check          PASS  100 points, max rel err 2.74e-07\n"
    )

    def test_seed_7_output_is_pinned(self, capsys):
        if numpy_blas() != self.PINNED_BLAS:
            pytest.skip(f"pin taken with {self.PINNED_BLAS}, numpy uses {numpy_blas()}")
        if openblas_kernel() != self.PINNED_KERNEL:
            pytest.skip(f"pin taken on the {self.PINNED_KERNEL} kernel, OpenBLAS runs {openblas_kernel()}")
        assert run(["verify", "--seed", "7"]) == 1
        assert capsys.readouterr().out == self.PINNED_SEED_7

    def test_nan_errors_fail_cap_identity_and_grad_check(self, capsys, monkeypatch):
        real_identity = capacity.cap_area_identity_check

        def identity_with_a_nan(delta, dim):
            lhs, rhs, err = real_identity(delta, dim)
            return lhs, rhs, np.where(np.arange(err.size) == 3, math.nan, err) if dim == 7 else err

        monkeypatch.setattr(capacity, "cap_area_identity_check", identity_with_a_nan)
        monkeypatch.setattr(verify.losses, "cross_entropy_grad", lambda logits, labels: np.full(logits.shape, math.nan))
        assert run(["verify", "--only", "cap-identity"]) == 1
        assert run(["verify", "--only", "grad-check"]) == 1
        assert capsys.readouterr().out == (
            "cap-identity  FAIL  max abs err nan\ngrad-check  FAIL  100 points, max rel err nan\n")

    def test_an_infinite_bound_is_legal(self, capsys, monkeypatch):
        real = capacity.ec_min
        monkeypatch.setattr(capacity, "ec_min", lambda delta, dim, n: dataclasses.replace(
            real(delta, dim, n), **dict.fromkeys(["ec_min", "erfc_bound", "exp_bound"], np.full(delta.shape, math.inf)))
            if dim == 256 else real(delta, dim, n))
        assert run(["verify", "--only", "capacity-bounds"]) == 0
        assert "capacity-bounds  PASS  erfc-form > exp-form at 25 points;" in capsys.readouterr().out

    def test_grad_check_passes_where_a_balance_point_sat_below_the_step(self, capsys):
        # seed 130 draws a balance point with an entry under the 1e-5 step
        assert run(["verify", "--only", "grad-check", "--seed", "130"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--config", "x.json"], ["--out", "x"], ["--force"]])
    def test_options_verify_does_not_use_are_usage_errors(self, flag, capsys):
        assert run(["verify", "--only", "cap-identity", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_runs_as_python_dash_m_moelab(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "moelab", "verify", "--only", "cap-identity"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--only", "bogus"]) == 2
        assert "argument --only: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["verify", "--only", "grad-check", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --seed must be >= 0, got -1" in captured.err
        assert captured.out == ""


class TestRouteSimCommand:
    def test_csv_shape_and_balance(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "block", "--tokens", "20000",
                    "--dim", "64", "--experts", "8", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "expert,assigned,served,dropped,f,P"
        assert len(lines) == 9
        fs = [float(line.split(",")[4]) for line in lines[1:]]
        assert abs(sum(fs) - 1.0) < 1e-9

    def test_capacity_factor_drops_tokens(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "switch", "--tokens", "4000",
                    "--dim", "32", "--experts", "8", "--capacity-factor", "0.5",
                    "--seed", "4", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        dropped = sum(int(r[3]) for r in rows)
        served = sum(int(r[2]) for r in rows)
        cap = 250  # ceil(4000 * 0.5 / 8)
        assert all(int(r[2]) <= cap for r in rows)
        assert dropped + served == 4000

    def test_histograms_artifact(self, tmp_path):
        out = tmp_path / "route.csv"
        code = run(["route-sim", "--router", "block", "--tokens", "500", "--dim", "16",
                    "--experts", "4", "--histograms", "--seed", "1", "--out", str(out)])
        assert code == 0
        hist = tmp_path / "route.histograms.csv"
        assert hist.exists()
        lines = hist.read_text().splitlines()
        assert lines[0] == "kind,expert_i,expert_j,bin_lo,bin_hi,count"
        assert len(lines) - 1 == 4 * 4 * 64 + 2 * 4 * 64

    def test_hash_router_with_capacity(self, tmp_path):
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--router", "hash", "--tokens", "1000", "--experts", "8",
                    "--capacity-factor", "0.9", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assigned = np.bincount([fnv1a64_reference(i) % 8 for i in range(1000)], minlength=8)
        cap = 113  # ceil(1000 * 0.9 / 8)
        served = np.minimum(assigned, cap)
        assert (assigned > cap).any()
        assert rows[:, 0].tolist() == list(range(8))
        assert rows[:, 1].tolist() == assigned.tolist()
        assert rows[:, 2].tolist() == served.tolist()
        assert rows[:, 3].tolist() == (assigned - served).tolist()
        assert rows[:, 5].tolist() == rows[:, 4].tolist()  # P equals f
        assert json.loads((tmp_path / "route.csv.meta.json").read_text())["config"]["applied_capacity"] == cap

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--tokens", "100", "--seed", "-1", "--out", str(out)]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_noise_std_is_usage_error(self, tmp_path, capsys):
        # the noise is not silently switched off
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--tokens", "100", "--noise-std", "nan", "--out", str(out)]) == 2
        assert "error: --noise-std must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_capacity_factor_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--tokens", "100", "--capacity-factor", "nan",
                    "--out", str(out)]) == 2
        assert "error: --capacity-factor must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_factor_whose_budget_overflows_is_usage_error(self, tmp_path, capsys):
        # 1e300 still gives a finite budget; 1000 * 1e308 overflows to inf
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--tokens", "1000", "--capacity-factor", "1e308",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: capacity budget 1000 * 1e+308 / (1 * 8) is not finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_experts_not_dividing_dim_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert run(["route-sim", "--router", "block", "--tokens", "100", "--dim", "64",
                    "--experts", "5", "--out", str(out)]) == 2
        assert "error: dim=64 is not divisible by n_experts=5" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, message", [
        (["--router", "hash", "--experts", "0"], "n_experts must be >= 1, got 0"),
        (["--router", "switch", "--experts", "0"], "n_experts must be >= 1, got 0"),
        (["--tokens", "0"], "n_samples must be >= 1, got 0"),
        (["--dim", "1"], "dim must be >= 2, got 1"),
        (["--capacity-factor", "0"],
         "all of batch_size, capacity_factor, expert_parallel, n_experts must be positive"),
        (["--router", "hash", "--histograms"], "--histograms needs a weight-based router"),
    ])
    def test_out_of_range_values_are_usage_errors_before_writing(self, argv, message, tmp_path,
                                                                 capsys):
        assert run(["route-sim", "--tokens", "100", *argv, "--out", str(tmp_path / "route.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--noise-std", "-1"], "--noise-std must be >= 0, got -1.0"),
        (["--router", "hash", "--noise-std", "0.1"], "--noise-std applies only to the block router"),
        (["--router", "switch", "--noise-std", "0.1"], "--noise-std applies only to the block router"),
    ])
    def test_noise_std_usage_errors_before_sampling(self, argv, message, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli.capacity, "sample_unit_sphere", _no_sampling)
        assert run(["route-sim", "--tokens", "100", *argv, "--out", str(tmp_path / "route.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", ["r.histograms.csv.meta.json", "r.histograms.csv", "r.csv.meta.json"])
    def test_existing_output_is_refused_before_any_sampling(self, existing, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.capacity, "sample_unit_sphere", _no_sampling)
        refuses(["route-sim", "--tokens", "500", "--histograms", "--out", str(tmp_path / "r.csv")],
                tmp_path, existing, capsys)

    def test_output_without_a_directory_is_refused_before_any_sampling(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.capacity, "sample_unit_sphere", _no_sampling)
        refuses_bad_directory(["route-sim", "--tokens", "500", "--histograms"], "r.csv", tmp_path, capsys)


class TestTrainToyCommand:
    def test_writes_records_report_and_volumes(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run(["train-toy", "--router", "loc", "--epochs", "3",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        for col in ("epoch", "step", "router", "l_aux", "l_loc", "l_cross", "l_task",
                    "locality_fraction"):
            assert col in header
        assert (tmp_path / "run.report.csv").exists()
        assert (tmp_path / "run.volumes.csv").exists()
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["seed"] == 2
        assert meta["config"]["router"] == "loc"

    @pytest.mark.parametrize("router", ["hash", "switch", "loc"])
    def test_loss_totals_are_derived_from_the_logged_losses(self, router, tmp_path):
        # l_cross is the summed cross-entropy l_cross_mean * T, and l_task is
        # l_aux + l_loc + l_cross, bit for bit
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", router, "--epochs", "3", "--tokens-per-cluster", "64",
                    "--out", str(out)]) == 0
        header, *rows = read_rows(out)
        tokens = 4 * 64  # the default four clusters
        for row in rows:
            loss = {name: float(row[header.index(name)])
                    for name in ("l_aux", "l_loc", "l_cross", "l_cross_mean", "l_task")}
            assert loss["l_cross"].hex() == (loss["l_cross_mean"] * tokens).hex()
            assert loss["l_task"].hex() == (loss["l_aux"] + loss["l_loc"] + loss["l_cross"]).hex()

    def test_hash_report_is_balanced_and_shares_the_run_csvs_columns(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "hash", "--experts", "8", "--epochs", "5", "--lr", "0.1",
                    "--tokens-per-cluster", "64", "--out", str(out)]) == 0
        records, report = read_rows(out), read_rows(tmp_path / "run.report.csv")
        lead = ["epoch", "step", "router", *(f"count_{i}" for i in range(8))]
        assert report[0] == lead + ["entropy", "never_used_fraction", "locality_fraction"]
        assert len(report) == len(records) == 6
        assert [row[:len(lead)] for row in report] == [row[:len(lead)] for row in records]
        for row, rec in zip(report[1:], records[1:]):
            assert row[:3] == [rec[0], "0", "hash"]
            assert float(row[-3]) == pytest.approx(math.log(8), abs=1e-9)
            assert float(row[-2]) == 0.0
            assert [row[-3], row[-1]] == [rec[-1], rec[-2]]  # entropy, locality_fraction

    def test_report_never_used_fraction_is_cumulative(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "switch", "--lr", "0", "--epochs", "2",
                    "--tokens-per-cluster", "64", "--out", str(out)]) == 0
        records, report = read_rows(out), read_rows(tmp_path / "run.report.csv")
        col = report[0].index("never_used_fraction")
        seen = np.zeros(16, dtype=bool)
        for rec, row in zip(records[1:], report[1:], strict=True):
            seen |= np.array(rec[3:19], dtype=int) > 0
            assert float(row[col]) == (~seen).mean()
        assert float(report[-1][col]) > 0  # some expert is never used

    def test_config_values_must_have_the_flag_type(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "run.csv"
        for bad in ({"epochs": "5"}, {"epochs": 2.0}, {"epochs": True}, {"lr": "1"}):
            config.write_text(json.dumps(bad))
            assert run(["train-toy", "--config", str(config), "--out", str(out)]) == 2
            assert "is not of type" in capsys.readouterr().err
            assert not out.exists()
        # an int serves a float flag and is converted, as the flag's value is
        config.write_text(json.dumps({"lr": 1, "epochs": 1, "tokens-per-cluster": 16}))
        assert run(["train-toy", "--router", "hash", "--config", str(config),
                    "--out", str(out)]) == 0
        meta = (tmp_path / "run.csv.meta.json").read_text()
        assert '"lr": 1.0,' in meta

    @pytest.mark.parametrize("content", ['"epochs"', "[1, 2]"])
    def test_config_file_that_is_not_an_object_is_usage_error(self, content, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(content)
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: config file {config}: expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("router", ["hash", "switch", "loc"])
    def test_one_expert_trains(self, router, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", router, "--experts", "1", "--epochs", "2",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].split(",")[3:6] == ["count_0", "f_0", "P_0"]

    @pytest.mark.parametrize("argv, message", [
        (["--router", "switch", "--lr", "1e9", "--epochs", "20", "--tokens-per-cluster", "64"],
         "non-finite objective nan at epoch 5"),
        (["--router", "loc", "--mu", "1e308"], "gradient check failed for router 'loc': max rel err nan"),
    ])
    def test_divergence_is_a_runtime_error_and_its_one_line(self, argv, message, tmp_path, capsys):
        # no floating-point warning either: the suite makes a RuntimeWarning an error
        assert run(["train-toy", *argv, "--out", str(tmp_path / "run.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_zero_epochs_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--epochs", "0", "--out", str(out)]) == 2
        assert "error: epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_in_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"epochs": 0}))
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--config", str(config), "--out", str(out)]) == 2
        assert "error: epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # as a flag and as a config-file value
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": -3}))
        out = tmp_path / "run.csv"
        for argv, value in ((["--seed", "-1"], -1), (["--config", str(config)], -3)):
            assert run(["train-toy", "--epochs", "1", *argv, "--out", str(out)]) == 2
            assert f"error: --seed must be >= 0, got {value}" in capsys.readouterr().err
            assert not out.exists()

    def test_out_of_range_flags_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        for flag, value, message in (
            ("--alpha", "-1", "alpha must be >= 0, got -1.0"),
            ("--clusters", "0", "n_clusters must be >= 1, got 0"),
            ("--nodes", "0", "topology needs at least one node"),
            ("--experts", "0", "placement must cover at least one expert"),
        ):
            assert run(["train-toy", flag, value, "--out", str(out)]) == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, value, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--lr", value, "--epochs", "1", "--out", str(out)]) == 2
        assert f"error: --lr must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_concentration_is_a_corpus_without_jitter(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "hash", "--concentration", "inf", "--epochs", "1",
                    "--tokens-per-cluster", "16", "--out", str(out)]) == 0
        assert run(["train-toy", "--concentration=-inf", "--out", str(out), "--force"]) == 2
        assert "error: --concentration must be finite, got -inf" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-160", "1e-300", "5e-324"])
    def test_concentration_whose_jitter_overflows_is_usage_error(self, value, tmp_path, capsys):
        # one error line, no numpy warning, nothing written
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--concentration", value, "--epochs", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: concentration {float(value)} is too small: the jittered tokens' norms overflow\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("router", ["hash", "switch", "loc"])
    def test_run_with_nodes_holding_no_tokens_writes_finite_csv(self, router, tmp_path):
        # 16 one-device nodes over 12 tokens: four source nodes hold none
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", router, "--nodes", "16", "--devices-per-node", "1",
                    "--clusters", "3", "--tokens-per-cluster", "4", "--dim", "8", "--experts", "4",
                    "--epochs", "5", "--seed", "3", "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 5
        values = np.array([[float(v) for v in row[3:]] for row in rows])
        assert np.isfinite(values).all()
        assert (values[:, header.index("l_loc") - 3] > 0).all()

    def test_nan_alpha_is_usage_error_not_a_divergence(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--alpha", "nan", "--epochs", "1", "--out", str(out)]) == 2
        assert "error: --alpha must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_loc_experts_not_dividing_dim_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", _no_training)
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "loc", "--experts", "5", "--out", str(out)]) == 2
        assert "error: dim=32 is not divisible by n_experts=5" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["train-toy", "--router", "hash", "--epochs", "1",
                "--tokens-per-cluster", "32", "--seed", "0", "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 2
        assert "force" in capsys.readouterr().err
        assert run(args + ["--force"]) == 0

    @pytest.mark.parametrize("existing", ["run.volumes.csv", "run.report.csv.meta.json", "run.csv"])
    def test_existing_output_is_refused_before_any_training(self, existing, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_corpus", _no_sampling)
        monkeypatch.setattr(cli, "train", _no_training)
        refuses(["train-toy", "--router", "hash", "--epochs", "3", "--out", str(tmp_path / "run.csv")],
                tmp_path, existing, capsys)

    def test_output_without_a_directory_is_refused_before_any_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_corpus", _no_sampling)
        monkeypatch.setattr(cli, "train", _no_training)
        refuses_bad_directory(["train-toy", "--router", "hash", "--epochs", "3"], "run.csv", tmp_path, capsys)


class TestCommSimCommand:
    def _volumes_from_run(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["train-toy", "--router", "loc", "--epochs", "2",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)]) == 0
        return tmp_path / "run"

    def test_degenerate_group_equals_plain(self, tmp_path):
        prefix = self._volumes_from_run(tmp_path)
        out = tmp_path / "comm.csv"
        code = run(["comm-sim", "--volumes", f"from-run:{prefix}",
                    "--tp-group", "1", "--out", str(out)])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        plain = float(row[header.index("plain_alltoall_s")])
        grouped = float(row[header.index("groupwise_total_s")])
        assert plain == grouped

    def test_topology_file_and_group(self, tmp_path):
        prefix = self._volumes_from_run(tmp_path)
        topo_file = tmp_path / "topo.json"
        topo_file.write_text(json.dumps({
            "n_nodes": 2, "devices_per_node": 8,
            "intra_bw": 100e9, "inter_bw": 25e9,
            "intra_latency": 10e-6, "inter_latency": 30e-6,
        }))
        out = tmp_path / "comm.csv"
        code = run(["comm-sim", "--volumes", f"from-run:{prefix}",
                    "--topology", str(topo_file), "--tp-group", "8",
                    "--out", str(out)])
        assert code == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        assert float(row[header.index("input_bytes")]) > 0

    @staticmethod
    def _comm_sim_row(tmp_path, n_nodes, devices_per_node, cells):
        """The data row of a --tp-group 1 comm-sim run on an explicit volume
        matrix over a topology at 1e-6/2e-6 s latency and 2e9/1e9 B/s."""
        topo, volumes, out = tmp_path / "topo.json", tmp_path / "v.csv", tmp_path / "comm.csv"
        topo.write_text(json.dumps({
            "n_nodes": n_nodes, "devices_per_node": devices_per_node,
            "intra_bw": 2e9, "inter_bw": 1e9, "intra_latency": 1e-6, "inter_latency": 2e-6,
        }))
        TestCommSimCommand._write_volumes(volumes, cells)
        assert run(["comm-sim", "--volumes", str(volumes), "--topology", str(topo),
                    "--tp-group", "1", "--out", str(out)]) == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        return dict(zip(header, row))

    def test_single_device_has_no_rounds_and_costs_nothing(self, tmp_path):
        row = self._comm_sim_row(tmp_path, 1, 1, [["5.0"]])
        assert row["plain_alltoall_s"] == row["groupwise_total_s"] == "0.0"

    def test_one_device_per_node_is_all_inter_node_rounds(self, tmp_path):
        # round 1 peaks at 6 bytes (2 -> 0), round 2 at 7 (2 -> 1): 2e-6 + 6e-9 + 2e-6 + 7e-9
        cells = [["0", "1", "2"], ["3", "0", "5"], ["6", "7", "0"]]
        row = self._comm_sim_row(tmp_path, 3, 1, cells)
        assert row["plain_alltoall_s"] == row["groupwise_total_s"] == "4.013e-06"

    def test_missing_volumes_is_usage_error(self, tmp_path, capsys):
        assert run(["comm-sim", "--out", str(tmp_path / "c.csv")]) == 2
        assert "volumes" in capsys.readouterr().err

    @staticmethod
    def _write_volumes(path, cells):
        path.write_text("\n".join([",".join(f"to_dev_{j}" for j in range(len(cells[0])))]
                                  + [",".join(row) for row in cells]) + "\n")

    @staticmethod
    def _volumes_usage_error(tmp_path, capsys, message):
        volumes, out = tmp_path / "v.csv", tmp_path / "comm.csv"
        assert run(["comm-sim", "--volumes", str(volumes), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(volumes) in err and message in err
        assert not out.exists() and not (tmp_path / "comm.csv.meta.json").exists()

    @pytest.mark.parametrize("cell, message", [
        ("x", "could not convert string 'x'"),
        ("-1.0", "volumes must be finite and non-negative"),
        ("nan", "volumes must be finite and non-negative"),
        ("inf", "volumes must be finite and non-negative"),
        ("-inf", "volumes must be finite and non-negative"),
    ])
    def test_bad_volume_entry_is_usage_error(self, cell, message, tmp_path, capsys):
        cells = [["0.0"] * 16 for _ in range(16)]
        cells[3][5] = cell
        self._write_volumes(tmp_path / "v.csv", cells)
        self._volumes_usage_error(tmp_path, capsys, message)

    def test_unreadable_or_misshapen_volume_file_is_usage_error(self, tmp_path, capsys):
        volumes = tmp_path / "v.csv"
        self._volumes_usage_error(tmp_path, capsys, "No such file or directory")
        volumes.mkdir()
        self._volumes_usage_error(tmp_path, capsys, "Is a directory")
        volumes.rmdir()
        self._write_volumes(volumes, [["1.0", "2.0"], ["3.0", "4.0"]])
        self._volumes_usage_error(tmp_path, capsys, "volume must be 16x16 for this topology, got (2, 2)")

    def test_placement_without_compare_routers_is_usage_error(self, tmp_path, capsys):
        volumes = tmp_path / "v.csv"
        self._write_volumes(volumes, [["0.0"] * 16 for _ in range(16)])
        out = tmp_path / "comm.csv"
        # the placement file does not exist: the mode never reads it
        assert run(["comm-sim", "--volumes", str(volumes), "--placement", str(tmp_path / "nope.json"),
                    "--out", str(out)]) == 2
        assert "error: --placement applies only with --compare-routers" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [volumes]

    def test_volumes_with_compare_routers_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        volumes = tmp_path / "v.csv"
        self._write_volumes(volumes, [["0.0"] * 16 for _ in range(16)])
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--volumes", str(volumes),
                    "--out", str(out)]) == 2
        assert "error: --volumes does not apply with --compare-routers" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [volumes]

    @pytest.mark.parametrize("source", ["argv", "config"])
    @pytest.mark.parametrize("flag, value", [
        ("--epochs", 7), ("--experts", 16), ("--tokens-per-cluster", 9),  # 16 is the default
    ])
    def test_training_flag_without_compare_routers_is_usage_error(
            self, flag, value, source, tmp_path, capsys):
        volumes, config = tmp_path / "v.csv", tmp_path / "c.json"
        self._write_volumes(volumes, [["0.0"] * 16 for _ in range(16)])
        config.write_text(json.dumps({flag[2:]: value}))
        given = [flag, str(value)] if source == "argv" else ["--config", str(config)]
        assert run(["comm-sim", "--volumes", str(volumes), *given,
                    "--out", str(tmp_path / "comm.csv")]) == 2
        assert capsys.readouterr().err == f"error: {flag} applies only with --compare-routers\n"
        assert sorted(tmp_path.iterdir()) == [config, volumes]

    def test_header_only_volume_file_prints_only_the_error(self, tmp_path):
        (tmp_path / "v.csv").write_text(",".join(f"to_dev_{j}" for j in range(16)) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "moelab", "comm-sim", "--volumes", "v.csv", "--out", "comm.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: v.csv: volume must be 16x16 for this topology, got (0, 1)\n"
        assert [path.name for path in tmp_path.iterdir()] == ["v.csv"]

    def test_malformed_json_inputs_are_usage_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = str(tmp_path / "c.csv")
        for argv in (
            ["comm-sim", "--config", str(bad), "--out", out],
            ["comm-sim", "--topology", str(bad), "--volumes", "v.csv", "--out", out],
            ["comm-sim", "--compare-routers", "--placement", str(bad), "--out", out],
        ):
            assert run(argv) == 2
            assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--topology", "--placement"])
    def test_unreadable_json_input_is_usage_error(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        missing, binary = tmp_path / "nope.json", tmp_path / "binary.json"
        binary.write_bytes(b"\xff{}")
        out = tmp_path / "c.csv"
        for path, message in ((missing, f"cannot read {missing}: No such file or directory"),
                              (binary, f"{binary} is not valid JSON")):
            assert run(["comm-sim", "--compare-routers", flag, str(path), "--out", str(out)]) == 2
            assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    TOPOLOGY = {"n_nodes": 2, "devices_per_node": 8, "intra_bw": 100e9, "inter_bw": 25e9,
                "intra_latency": 10e-6, "inter_latency": 30e-6}

    def _topology_error(self, tmp_path, capsys, content):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps(content))
        code = run(["comm-sim", "--topology", str(topo), "--volumes", "v.csv",
                    "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert code == 2 and str(topo) in err
        return err

    def test_topology_json_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        err = self._topology_error(tmp_path, capsys, [1, 2])
        assert "expected a JSON object of topology fields, got list" in err

    def test_topology_json_missing_field_is_usage_error(self, tmp_path, capsys):
        content = {k: v for k, v in self.TOPOLOGY.items() if k != "devices_per_node"}
        assert "topology field 'devices_per_node' is missing" in self._topology_error(
            tmp_path, capsys, content)

    def test_topology_json_wrongly_typed_field_is_usage_error(self, tmp_path, capsys):
        err = self._topology_error(tmp_path, capsys, {**self.TOPOLOGY, "n_nodes": "2"})
        assert "topology field n_nodes='2' is not of type int" in err

    @pytest.mark.parametrize("field", ["intra_bw", "inter_bw", "intra_latency", "inter_latency"])
    def test_topology_json_non_finite_field_is_usage_error(self, field, tmp_path, capsys):
        # json writes and reads these floats as NaN, Infinity and -Infinity
        for value in (float("nan"), float("inf"), float("-inf")):
            err = self._topology_error(tmp_path, capsys, {**self.TOPOLOGY, field: value})
            assert f"topology field {field} must be finite, got {value}" in err
            assert err.count("\n") == 1 and not (tmp_path / "c.csv").exists()

    def test_compare_routers_topology_without_nodes_is_usage_error(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({**self.TOPOLOGY, "n_nodes": 0}))
        out = tmp_path / "c.csv"
        code = run(["comm-sim", "--compare-routers", "--topology", str(topo), "--out", str(out)])
        assert code == 2
        assert (f"error: {topo}: topology needs at least one node and one device per node"
                in capsys.readouterr().err)
        assert not out.exists()

    def _placement_error(self, tmp_path, capsys, content):
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps(content))
        code = run(["comm-sim", "--compare-routers", "--placement", str(placement),
                    "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert code == 2 and str(placement) in err
        return err

    def test_placement_json_that_is_not_an_object_or_list_is_usage_error(self, tmp_path, capsys):
        err = self._placement_error(tmp_path, capsys, "x")
        assert "expected a JSON object of placement fields, got str" in err

    def test_placement_json_missing_field_is_usage_error(self, tmp_path, capsys):
        err = self._placement_error(tmp_path, capsys, {"devices": [0, 1]})
        assert "placement field 'device_of_expert' is missing" in err

    def test_placement_json_wrongly_typed_value_is_usage_error(self, tmp_path, capsys):
        err = self._placement_error(tmp_path, capsys, ["x"] + list(range(15)))
        assert "placement device id 'x' is not of type int" in err
        err = self._placement_error(tmp_path, capsys, {"device_of_expert": 3})
        assert "placement field device_of_expert=3 is not of type list" in err

    @pytest.mark.parametrize("devices, message", [
        ([0, 1, 2], "placement covers 3 experts, expected 16"),
        (list(range(15)) + [99], "placement references a device outside the topology"),
        (list(range(15)) + [-1], "placement references a device outside the topology"),
    ])
    def test_placement_that_does_not_fit_is_usage_error_before_the_corpus(
            self, devices, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_corpus", _no_sampling)
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        err = self._placement_error(tmp_path, capsys, devices)
        assert f"error: {tmp_path / 'p.json'}: {message}" in err
        assert not (tmp_path / "c.csv").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--epochs", "1",
                    "--seed", "-1", "--out", str(out)]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("group", ["0", "3"])
    def test_compare_routers_bad_tp_group_is_usage_error_before_training(
            self, group, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--tp-group", group, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --tp-group: tp_group_size={group} must divide devices_per_node=8" in err
        assert not out.exists()

    def test_volumes_bad_tp_group_is_usage_error(self, tmp_path, capsys):
        volumes = tmp_path / "v.csv"
        np.savetxt(volumes, np.zeros((16, 16)), delimiter=",", header="x", comments="")
        out = tmp_path / "comm.csv"
        assert run(["comm-sim", "--volumes", str(volumes), "--tp-group", "3",
                    "--out", str(out)]) == 2
        assert "error: --tp-group: tp_group_size=3 must divide" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_routers_experts_not_dividing_dim_is_usage_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--experts", "5", "--out", str(out)]) == 2
        assert "error: dim=32 is not divisible by n_experts=5" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_routers_with_one_expert(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--experts", "1", "--epochs", "2",
                    "--tokens-per-cluster", "64", "--seed", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_compare_routers_meta_records_tokens_per_cluster(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["comm-sim", "--compare-routers", "--epochs", "1",
                    "--tokens-per-cluster", "16", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
        assert meta["config"]["tokens_per_cluster"] == 16

    def test_compare_routers_meta_records_topology_and_placement(self, tmp_path):
        argv = ["comm-sim", "--compare-routers", "--epochs", "1", "--tokens-per-cluster", "16"]
        assert run([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        config = json.loads((tmp_path / "a.csv.meta.json").read_text())["config"]
        assert (config["topology"], config["placement"]) == ("default", "default")
        topo, placement = tmp_path / "t.json", tmp_path / "p.json"
        topo.write_text(json.dumps(self.TOPOLOGY))
        placement.write_text(json.dumps(list(range(16))))
        assert run([*argv, "--topology", str(topo), "--placement", str(placement),
                    "--out", str(tmp_path / "b.csv")]) == 0
        config = json.loads((tmp_path / "b.csv.meta.json").read_text())["config"]
        assert (config["topology"], config["placement"]) == (str(topo), str(placement))

    def test_compare_routers_meta_records_each_runs_losses(self, tmp_path):
        assert run(["comm-sim", "--compare-routers", "--epochs", "1", "--tokens-per-cluster", "16",
                    "--out", str(tmp_path / "cmp.csv")]) == 0
        config = json.loads((tmp_path / "cmp.csv.meta.json").read_text())["config"]
        assert config["losses"] == {"hash": {"alpha": 0.0, "mu": 0.0}, "switch": {"alpha": 0.0, "mu": 0.0},
                                    "loc": {"alpha": 0.2, "mu": 0.1}}

    def test_compare_routers_pipeline(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run(["comm-sim", "--compare-routers", "--epochs", "6",
                    "--tokens-per-cluster", "128", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 4  # header + hash + switch + loc
        for col in ("router", "entropy", "locality_fraction", "plain_alltoall_s",
                    "groupwise_alltoall_s"):
            assert col in header
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        loc_col = header.index("locality_fraction")
        assert float(rows["loc"][loc_col]) >= float(rows["switch"][loc_col])

    @pytest.mark.parametrize("source, existing", [
        (["--compare-routers"], "c.csv.meta.json"),
        (["--compare-routers"], "c.csv"),
        (["--volumes", "missing.csv"], "c.csv"),  # refused before the volumes are read
    ])
    def test_existing_output_is_refused_before_any_work(self, source, existing, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_corpus", _no_sampling)
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        refuses(["comm-sim", *source, "--out", str(tmp_path / "c.csv")], tmp_path, existing, capsys)

    @pytest.mark.parametrize("source", [["--compare-routers", "--epochs", "5"], ["--volumes", "missing.csv"]])
    def test_output_without_a_directory_is_refused_before_any_work(self, source, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_corpus", _no_sampling)
        monkeypatch.setattr(cli, "compare_routers", _no_training)
        refuses_bad_directory(["comm-sim", *source], "c.csv", tmp_path, capsys)


class TestDeterminism:
    def test_train_toy_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for where in (a, b):
            code = run(["train-toy", "--router", "loc", "--epochs", "4",
                        "--tokens-per-cluster", "64", "--seed", "11",
                        "--out", str(where / "run.csv")])
            assert code == 0
        for name in ("run.csv", "run.report.csv", "run.volumes.csv", "run.csv.meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @staticmethod
    def _bytes_at_each_blas_thread_count(tmp_path, argv, names):
        """The named output files of ``python -m moelab *argv`` run with
        OPENBLAS_NUM_THREADS unset, 1 and 2."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        blobs = []
        for threads in (None, "1", "2"):
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            where = tmp_path / f"threads-{threads}"
            where.mkdir()
            proc = subprocess.run([sys.executable, "-m", "moelab", *argv],
                                  cwd=where, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            blobs.append([(where / name).read_bytes() for name in names])
        return blobs

    def test_compare_routers_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        blobs = self._bytes_at_each_blas_thread_count(
            tmp_path, ["comm-sim", "--compare-routers", "--epochs", "2", "--out", "c.csv"],
            ["c.csv", "c.csv.meta.json"])
        assert blobs[0] == blobs[1] == blobs[2]

    # on a 2-vCPU OpenBLAS host an unpinned run.csv differs between one and two
    # threads from epoch 10 (loc, seed 13) and epoch 3 (switch, seed 101) on
    @pytest.mark.parametrize("router, seed, epochs", [("loc", 13, 12), ("switch", 101, 5)])
    def test_train_toy_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path, router, seed, epochs):
        blobs = self._bytes_at_each_blas_thread_count(
            tmp_path, ["train-toy", "--router", router, "--seed", str(seed), "--epochs", str(epochs),
                       "--out", "run.csv"],
            ["run.csv", "run.report.csv", "run.volumes.csv", "run.csv.meta.json"])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_capacity_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            assert run(["capacity", "--delta", "0.1", "--dim", "256",
                        "--experts", "8", "--mc-samples", "10000",
                        "--seed", "5", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_route_sim_reruns_are_byte_identical(self, tmp_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            assert run(["route-sim", "--router", "block", "--tokens", "2000",
                        "--dim", "32", "--experts", "8", "--noise-std", "0.1",
                        "--seed", "6", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command, values, names", [
        ("capacity", {"delta": 0, "dim": 64, "experts": 8, "mc-samples": 1000}, ["out.json"]),
        ("route-sim", {"router": "block", "tokens": 500, "dim": 16, "experts": 4, "noise-std": 0,
                       "capacity-factor": 1}, ["out.csv", "out.csv.meta.json"]),
        # every value-taking train-toy flag
        ("train-toy", {"router": "switch", "epochs": 3, "lr": 1, "alpha": 0.3, "mu": 0, "clusters": 3,
                       "dim": 24, "experts": 8, "nodes": 1, "devices-per-node": 8, "tokens-per-cluster": 32,
                       "concentration": 6, "seed": 5},
         ["out.csv", "out.csv.meta.json", "out.report.csv", "out.report.csv.meta.json",
          "out.volumes.csv", "out.volumes.csv.meta.json"]),
    ], ids=["capacity", "route-sim", "train-toy"])
    def test_config_file_writes_the_bytes_of_the_same_flags(self, command, values, names, tmp_path):
        # integral values for float flags too: a config value is converted as its flag's value is
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        flags = [f"--{key}={value}" for key, value in values.items()]
        assert run([command, *flags, "--out", str(a / names[0])]) == 0
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**values, "out": str(b / names[0])}))
        assert run([command, "--config", str(config)]) == 0
        for out in (a, b):
            assert sorted(path.name for path in out.iterdir()) == names
        for written in names:
            assert (a / written).read_bytes() == (b / written).read_bytes(), written

    def test_config_file_out_is_honoured(self, tmp_path):
        out = tmp_path / "cap.json"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 0.1, "dim": 64, "experts": 8, "out": str(out)}))
        assert run(["capacity", "--config", str(config)]) == 0
        flagged = tmp_path / "flagged.json"
        assert run(["capacity", "--delta", "0.1", "--dim", "64", "--experts", "8",
                    "--out", str(flagged)]) == 0
        assert out.read_bytes() == flagged.read_bytes()
