import csv
import dataclasses
import gc
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import volfluct
from volfluct import cli
from volfluct.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("limit", "rate-scan", "thm2", "kernel-check")
# the commands that read and check a field which not every command reads
READERS = {"epsilons": ("rate-scan", "thm2"), "observe_times": ("rate-scan",),
           "test_functions": ("thm2",), "H_list": ("kernel-check",),
           "M": ("rate-scan", "thm2", "kernel-check"),
           "seed": ("rate-scan", "thm2", "kernel-check"),
           "preset": ("limit", "rate-scan", "thm2"), "H": ("limit", "rate-scan", "thm2")}


def _cfg(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def _run(args):
    return main(list(args))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _read_bytes(out, names):
    return {n: (out / n).read_bytes() for n in names}


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def test_limit_additive_unit_exact(tmp_path):
    cfg = _cfg(tmp_path, preset="additive-unit", x0=0.0, T=1.0, N=4)
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out),
                 "--assert"]) == 0
    lim = _read_csv(out / "limit.csv")
    assert [r["t"] for r in lim] == ["0", "0.25", "0.5", "0.75", "1"]
    assert all(float(r["x"]) == 0.0 for r in lim)
    var = _read_csv(out / "variance.csv")
    assert float(var[0]["var_y"]) == 0.0
    assert [float(r["var_y"]) for r in var] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_limit_fbm_variance(tmp_path):
    cfg = _cfg(tmp_path, preset="fbm-additive", H=0.7, x0=0.0, N=512)
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    var = _read_csv(out / "variance.csv")
    assert abs(float(var[-1]["var_y"]) - 1.0) < 2e-2


def test_limit_negative_sigma0_passes_assert(tmp_path, capsys):
    # limit has no gate, so --assert adds nothing to a run that succeeds
    cfg = _cfg(tmp_path, preset="fbm-additive", H=0.1, N=64, params={"sigma0": -2.0})
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--assert"]) == 0
    assert capsys.readouterr().err == ""


def test_limit_rerun_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, preset="trig", N=32)
    out = tmp_path / "o"
    names = ("limit.csv", "variance.csv", "manifest.json")
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    first = _read_bytes(out, names)
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    assert _read_bytes(out, names) == first


def test_unwritable_manifest_exits_2(tmp_path, capsys):
    # a directory where manifest.json should go: the run's CSVs are written,
    # then the manifest's OSError is a config error on out_dir
    cfg = _cfg(tmp_path, preset="additive-unit", x0=0.0, N=4)
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: out_dir: [Errno 21] Is a directory: %r\n"
                                       % str(out / "manifest.json"))


def test_manifest_contents(tmp_path):
    cfg = _cfg(tmp_path, preset="additive-unit", x0=0.0, N=4)
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["version"] == volfluct.__version__
    assert doc["command"] == "limit"
    assert doc["config"]["preset"] == "additive-unit"
    assert doc["config"]["N"] == 4
    assert doc["config"]["out_dir"] == str(out)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert doc["numerics"] == {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas["name"], blas["version"]),
        "numpy_cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
        "chunk_rows": 2048,
        "rng": "Philox keyed by the seed; increment (m, i) is ndtri(u + 2^-54) "
               "* sqrt(delta), u = k 2^-53 from draw m*N + i"}


# ---------------------------------------------------------------------------
# config rejection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("doc", [
    {"bogus_key": 1},
    {"N": 8192},
    {"M": 10},
    {"T": -1.0},
    {"epsilons": [0.2, 0.4]},
    {"epsilons": [1.5]},
    {"epsilons": []},
    {"preset": "fbm-additive"},              # H missing
    {"preset": "trig", "H": 0.7},            # H forbidden
    {"preset": "fbm-additive", "H": 0.7, "params": {"H": 0.7}},
    {"preset": "no-such-preset"},
    {"test_functions": ["gauss"]},
    {"seed": -3},
    {"test_functions": ["cos:inf"]},         # non-finite scales
    {"test_functions": ["cos:nan"]},
    {"test_functions": ["tanh:1e400"]},
    {"test_functions": ["cos:"]},            # empty scale
    {"test_functions": ["cos", "cos:1"]},    # one function, two spellings
    {"test_functions": ["tanh", "tanh"]},
])
def test_bad_configs_exit_2(tmp_path, capsys, doc):
    # the first key is the bad field; a command that reads it rejects it
    cfg = _cfg(tmp_path, **doc)
    for command in READERS.get(next(iter(doc)), ("limit",)):
        assert _run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ({"cov_pairs": [[1.0, 0.5, 0.25]]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"cov_pairs": [[1.0]]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"cov_pairs": [1.0]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"test_functions": ["cos:"]}, "test_functions: test function scale is empty"),
    ({"test_functions": ["tanh:2", "cos", "tanh:2.0"]},
     "test_functions: 'tanh:2.0' repeats an earlier entry"),
    ({"preset": "fbm-trig", "params": {"H": 0.7}},
     "params: give H as the top-level key, not in params"),
    # a string is no list: iterating it would read "0.4" as '0', '.', '4'
    ({"epsilons": "0.4"}, "epsilons: must be a list, got '0.4'"),
    ({"test_functions": "cos"}, "test_functions: must be a list, got 'cos'"),
    # str() and dict() would take any JSON value: null, ["x"] and 7 as
    # directory names, and a list of pairs as params
    ({"out_dir": None}, "out_dir: must be a string, got None"),
    ({"out_dir": ["x"]}, "out_dir: must be a string, got ['x']"),
    ({"out_dir": 7}, "out_dir: must be a string, got 7"),
    ({"preset": 7}, "preset: must be a string, got 7"),
    ({"params": [["a", 2.0]], "preset": "linear-growth"},
     "params: must be an object, got [['a', 2.0]]"),
    ({"params": "ab"}, "params: must be an object, got 'ab'"),
    ({"test_functions": ["cos", 3]}, "test_functions: must be a string, got 3"),
])
def test_malformed_list_entries_name_their_field(tmp_path, monkeypatch, capsys,
                                                 doc, message):
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **doc))
    out = tmp_path / "o"
    command = READERS.get(next(iter(doc)), ("limit",))[0]
    # --out would win over the file's out_dir, so that case runs without it
    monkeypatch.chdir(tmp_path)
    args = [] if "out_dir" in doc else ["--out", str(out)]
    assert _run([command, "--config", cfg] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_out_override_wins_over_a_malformed_out_dir(tmp_path):
    cfg = _cfg(tmp_path, N=16, out_dir=None)
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "limit.csv").is_file()


@pytest.mark.parametrize("field,value", [
    ("N", 16.9), ("M", 200.5), ("seed", 3.7),
    ("N", True), ("M", False), ("seed", True), ("N", "16"),
])
def test_non_integral_counts_exit_2(tmp_path, capsys, field, value):
    # int() would silently run N = 16.9 as 16 and "16" as 16; the field
    # must be named
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **{field: value}))
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: must be an integer, got " % field)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field,doc", [
    ("x0", {"x0": True}),
    ("T", {"T": "inf"}),
    ("x0", {"x0": "nan"}),
    ("params", {"preset": "trig", "params": {"kappa": "inf"}}),
    ("H", {"preset": "fbm-trig", "H": False}),
    ("epsilons", {"epsilons": [0.4, float("nan")]}),
    ("observe_times", {"observe_times": [True]}),
    ("H_list", {"H_list": ["-inf"]}),
    ("t_list", {"t_list": [False]}),
    ("cov_pairs", {"cov_pairs": [[1.0, "nan"]]}),
    ("x0", {"x0": "1.5"}),
    ("x0", {"x0": 10 ** 400}),               # an integer no float can hold
])
def test_booleans_and_non_finite_reals_exit_2(tmp_path, capsys, field, doc):
    # float() would run x0 = true as 1.0 and "1.5" as 1.5, and carry "inf"
    # into the solvers
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **doc))
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: must be a finite real number, got " % field)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,doc,message", [
    ("rate-scan", {"epsilons": [0.4, 0.2]}, "epsilons: rate scan needs at least 3"),
    ("rate-scan", {"observe_times": [0.33]},
     "observe_times: time 0.33 does not lie on the N=16 grid"),
    ("thm2", {"test_functions": []}, "test_functions: must be non-empty"),
    ("kernel-check", {"params": {"sigmo0": 2.0}},
     "params: kernel-check takes only sigma0, got sigmo0"),
    ("kernel-check", {"cov_pairs": [[1.0, 0.33]]},
     "cov_pairs: time 0.33 does not lie on the N=16 grid"),
    ("limit", {"preset": "trig", "params": {"bogus": 1.0}},
     "preset: unknown parameters for preset 'trig'"),
    # the default t_list reaches t = 1, past T
    ("kernel-check", {"T": 0.5}, "t_list: values must be in (0, T], got 1"),
])
def test_command_checks_leave_no_out_dir(tmp_path, capsys, command, doc, message):
    # checks a runner makes itself come before out_dir is created
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **doc))
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("H_list", [1.5], "H_list: values must be in (0,1), got 1.5"),
    ("observe_times", [1.5], "observe_times: values must be in (0, T], got 1.5"),
    ("test_functions", ["gauss"], "test_functions: unknown test function 'gauss'"),
    ("epsilons", [1.5], "epsilons: values must be in (0,1), got 1.5"),
    ("M", 5, "M: must be at least 100, got 5"),
    ("seed", -3, "seed: must fit in uint64"),
    ("preset", "fbm-trig", "H: required for preset 'fbm-trig'"),
    ("H", 0.7, "H: only meaningful for fbm presets, not 'trig'"),
])
def test_field_is_checked_by_the_command_that_reads_it(tmp_path, capsys, field,
                                                       value, message):
    cfg = _cfg(tmp_path, **{"preset": "trig", "N": 16, "M": 200,
                            "epsilons": [0.4, 0.2, 0.1], "H_list": [0.7],
                            "t_list": [1.0], "cov_pairs": [[1.0, 0.5]],
                            field: value})
    for command in COMMANDS:
        out = tmp_path / command
        code = _run([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if command in READERS[field]:
            assert code == 2 and err.startswith("config error: " + message), command
            assert not out.exists()
        else:
            assert code == 0 and err == "", command


@pytest.mark.parametrize("command", ["limit", "rate-scan", "thm2"])
def test_short_horizon_runs(tmp_path, command):
    # t_list and cov_pairs belong to kernel-check; their defaults reach
    # t = 1 and must not refuse a simulation with T < 1
    cfg = _cfg(tmp_path, preset="trig", T=0.5, N=16, M=200,
               epsilons=[0.4, 0.2, 0.1])
    assert _run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_integral_floats_are_counts(tmp_path):
    cfg = _cfg(tmp_path, N=16.0, M=1e5, seed=3.0)
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())["config"]
    assert (doc["N"], doc["M"], doc["seed"]) == (16, 100000, 3)


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _cfg(tmp_path, preset="trig", N=16, M=200, epsilons=[0.2, 0.1, 0.05])
    for command in ("limit", "rate-scan"):
        assert _run([command, "--config", cfg,
                     "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: ")
        assert "Traceback" not in err
    # the directory exists but an artifact cannot be written into it
    taken = tmp_path / "o"
    (taken / "limit.csv").mkdir(parents=True)
    assert _run(["limit", "--config", cfg, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir: ")


def test_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # M = 1e12 asks numpy for 7.28 TiB; a stand-in raises its error so that
    # nothing large is allocated here
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(cli, "coupled_terminal_samples", refuse)
    cfg = _cfg(tmp_path, preset="trig", N=16, M=10 ** 12, epsilons=[0.4, 0.2, 0.1])
    assert _run(["rate-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: Unable to allocate 7.28 TiB for an array with shape "
        "(1000000000000,) and data type float64"]


@pytest.mark.parametrize("command", ["rate-scan", "thm2"])
def test_oversized_m_exits_2_before_allocating(tmp_path, capsys, command):
    # past intp.max // 8, numpy refuses an (M,) float64 array by its shape
    # with a ValueError; _check_draw refuses M first, so nothing is allocated
    cfg = _cfg(tmp_path, preset="trig", N=16, M=1e20, epsilons=[0.4, 0.2, 0.1])
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: M: must be at most %d, got %d"
        % (np.iinfo(np.intp).max // 8, 10 ** 20)]
    assert not out.exists()


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert _run(["limit", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["limit", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "JSON" in err


@pytest.mark.parametrize("field,value", [
    ("x0", "a" * 200000), ("preset", ["x"] * 50000)], ids=["x0", "preset"])
def test_long_echoed_values_leave_one_short_line(tmp_path, capsys, field, value):
    # the rejected value is echoed, but cut in the middle, so the line is
    # bounded and still names the field
    cfg = _cfg(tmp_path, N=16, **{field: value})
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert err.startswith("config error: %s: must be a" % field)
    assert "characters]..." in err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"preset": "trig\xff"}',                                 # not UTF-8
    b'{"x0": ' + b"[" * 200000 + b"]" * 200000 + b"}",          # too deep to parse
], ids=["not-utf8", "nested"])
def test_unreadable_config_files_exit_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert _run(["limit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_vf_threads_validation(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, N=4, x0=0.0)
    monkeypatch.setenv("VF_THREADS", "abc")
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "VF_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("VF_THREADS", "0")
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# rate-scan
# ---------------------------------------------------------------------------


def test_rate_scan_exact_zero_distances(tmp_path):
    # x0 = 0 and dyadic epsilons make the coupled Xt and Y bitwise equal,
    # so every distance is exactly zero and the fits are unresolvable
    cfg = _cfg(tmp_path, preset="additive-unit", x0=0.0, N=16, M=200,
               epsilons=[0.5, 0.25, 0.125])
    out = tmp_path / "o"
    assert _run(["rate-scan", "--config", cfg, "--out", str(out),
                 "--assert"]) == 0
    for row in _read_csv(out / "distances.csv"):
        assert float(row["kolmogorov"]) == 0.0
        assert float(row["tv_histogram"]) == 0.0
    status = {r["metric"]: r["status"] for r in _read_csv(out / "ratefit.csv")}
    assert status["rms_x_gap"] == "ok"
    assert status["rms_xt_y"] == "below resolution"
    assert status["rms_second"] == "below resolution"
    assert status["kolmogorov"] == "below resolution"
    fit = [r for r in _read_csv(out / "ratefit.csv")
           if r["metric"] == "rms_x_gap"][0]
    assert float(fit["slope"]) == pytest.approx(1.0, rel=1e-9)


def test_rate_scan_requires_three_epsilons(tmp_path, capsys):
    cfg = _cfg(tmp_path, epsilons=[0.4, 0.2], N=8, M=100)
    assert _run(["rate-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_rate_scan_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, preset="trig", N=32, M=4100,
               epsilons=[0.4, 0.2, 0.1])
    out = tmp_path / "o"
    names = ("distances.csv", "strong.csv", "ratefit.csv", "manifest.json")
    monkeypatch.setenv("VF_THREADS", "1")
    assert _run(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
    first = _read_bytes(out, names)
    monkeypatch.setenv("VF_THREADS", "4")
    assert _run(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
    assert _read_bytes(out, names) == first


def test_rate_scan_assert_names_every_failed_gate_in_order(tmp_path, monkeypatch,
                                                          capsys):
    # stand-ins that fail all four gate kinds: Kolmogorov = eps over TV 0.15
    # breaks the ordering at eps 0.4, each fit's slope is its first value,
    # and the rms calls count up, so rms_second grows along the sweep
    from volfluct.stats import DistanceReport, RateFit

    monkeypatch.setattr(cli, "distance_report", lambda eps, a, b, seed=0: DistanceReport(
        epsilon=eps, kolmogorov=eps, tv_histogram=0.15, bins=16, n_a=len(a),
        n_b=len(b), kolmogorov_se=0.01, tv_se=0.02))
    monkeypatch.setattr(cli, "rate_fit", lambda pts: RateFit(
        slope=pts[0][1], intercept=0.0, residual=0.0, n_points=len(pts)))
    calls = []
    monkeypatch.setattr(cli, "rms_with_se",
                        lambda vals: (calls.append(1) or 0.1 * len(calls), 0.001))
    cfg = _cfg(tmp_path, preset="trig", N=16, M=200, epsilons=[0.4, 0.2, 0.1])
    assert _run(["rate-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--assert"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "assert failed: distance ordering t=0.5 eps=0.4: kolmogorov 0.4 > tv 0.15 + 0.0894",
        "assert failed: distance ordering t=1 eps=0.4: kolmogorov 0.4 > tv 0.15 + 0.0894",
        "assert failed: rms_x_gap slope 0.100 outside [0.85, 1.15]",
        "assert failed: rms_xt_y slope 0.200 outside [0.85, 1.15]",
        "assert failed: kolmogorov slope 0.400 below 0.75",
        "assert failed: rms_second not decreasing: 0.3 (eps=0.4) -> 0.6 (eps=0.2)",
        "assert failed: rms_second not decreasing: 0.6 (eps=0.2) -> 0.9 (eps=0.1)"]


def test_rate_scan_observe_times_snap(tmp_path, capsys):
    cfg = _cfg(tmp_path, preset="trig", N=16, M=150,
               epsilons=[0.4, 0.2, 0.1], observe_times=[0.5, 1.0])
    out = tmp_path / "o"
    assert _run(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
    ts = sorted({float(r["t"]) for r in _read_csv(out / "distances.csv")})
    assert ts == [0.5, 1.0]
    # the terminal node is always observed: its distances feed the gates
    for times in ([0.5], []):
        cfg = _cfg(tmp_path, preset="trig", N=16, M=150,
                   epsilons=[0.4, 0.2, 0.1], observe_times=times)
        assert _run(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
        ts = sorted({float(r["t"]) for r in _read_csv(out / "distances.csv")})
        assert ts == sorted({*times, 1.0})
    bad = _cfg(tmp_path, name="bad.json", preset="trig", N=16, M=150,
               epsilons=[0.4, 0.2, 0.1], observe_times=[0.33])
    assert _run(["rate-scan", "--config", bad, "--out", str(out)]) == 2
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# thm2
# ---------------------------------------------------------------------------


def test_thm2_additive_unit_exact_zero(tmp_path):
    cfg = _cfg(tmp_path, preset="additive-unit", x0=0.0, N=16, M=300,
               epsilons=[0.25], test_functions=["cos", "const"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 0
    rows = _read_csv(out / "thm2.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["lhs"]) == 0.0
        assert float(row["rhs"]) == 0.0
        assert float(row["gap_over_se"]) == 0.0
        assert row["status"] == "ok"


def test_thm2_degenerate_variance(tmp_path, capsys):
    # x0 = 0 kills the multiplicative noise, so Var(Y_T) = 0
    cfg = _cfg(tmp_path, preset="multiplicative", x0=0.0, N=16, M=200,
               epsilons=[0.25], test_functions=["cos"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "thm2.csv")
    assert rows[0]["status"] == "degenerate"
    assert math.isnan(float(rows[0]["lhs"]))
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 4
    assert "assert failed" in capsys.readouterr().err


def _off_by(real, shift):
    """A report function whose lhs sits `shift` away from its rhs."""
    def shifted(phi, eps, *args):
        rep = real(phi, eps, *args)
        return dataclasses.replace(rep, lhs=rep.rhs + shift)
    return shifted


def test_thm2_assert_gates_smallest_halving_pair(tmp_path, monkeypatch,
                                                capsys):
    seen = []
    shifted = _off_by(cli.thm2_report, 10.0)
    monkeypatch.setattr(cli, "thm2_report",
                        lambda phi, eps, *a: seen.append(eps) or
                        shifted(phi, eps, *a))
    cfg = _cfg(tmp_path, preset="trig", N=16, M=300,
               epsilons=[0.4, 0.2, 0.1, 0.05], test_functions=["cos"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 4
    err = capsys.readouterr().err
    # one report per row, then the gate on the smallest of the pairs
    # (0.4, 0.2), (0.2, 0.1), (0.1, 0.05)
    assert seen == [0.4, 0.2, 0.1, 0.05, 0.1]
    assert "phi=cos eps=0.1: |2 lhs(eps/2) - lhs(eps) - rhs|=10" in err
    assert "|lhs-rhs|" not in err  # fixed-eps rows are reported only
    assert len(_read_csv(out / "thm2.csv")) == 4


def test_thm2_assert_without_halving_pair_gates_last_eps(tmp_path,
                                                         monkeypatch, capsys):
    seen = []
    shifted = _off_by(cli.thm2_report, 10.0)
    monkeypatch.setattr(cli, "thm2_report",
                        lambda phi, eps, *a: seen.append(eps) or
                        shifted(phi, eps, *a))
    cfg = _cfg(tmp_path, preset="trig", N=16, M=300, epsilons=[0.3, 0.2],
               test_functions=["cos"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 4
    err = capsys.readouterr().err
    assert seen == [0.3, 0.2]  # the rows only: no (e, e/2) pair to gate
    assert "phi=cos eps=0.2: |lhs-rhs|=10 exceeds 3*SE" in err
    assert "eps=0.3" not in err


def test_thm2_assert_degenerate_messages(tmp_path, capsys):
    # one failure per (eps, phi) cell, eps first, then phi
    cfg = _cfg(tmp_path, preset="multiplicative", x0=0.0, N=16, M=200,
               epsilons=[0.25, 0.125], test_functions=["cos", "tanh"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out), "--assert"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "assert failed: phi=%s eps=%s: degenerate Var(Y_T)" % (phi, eps)
        for eps in ("0.25", "0.125") for phi in ("cos", "tanh")]
    assert [r["status"] for r in _read_csv(out / "thm2.csv")] == ["degenerate"] * 4


@pytest.mark.parametrize("epsilons,label,richardson", [
    ([0.2, 0.1], "|2 lhs(eps/2) - lhs(eps) - rhs|", True),
    ([0.3, 0.2], "|lhs-rhs|", False),
])
def test_thm2_assert_messages_two_phi(tmp_path, monkeypatch, capsys, epsilons,
                                      label, richardson):
    # every gated report fails; its messages come in phi order, each
    # formatted from the report that the gate read: a Richardson report
    # made after the rows, or the last eps's rows themselves
    reports = []
    shifted = _off_by(cli.thm2_report, 10.0)
    monkeypatch.setattr(cli, "thm2_report",
                        lambda *a: reports.append(shifted(*a)) or reports[-1])
    cfg = _cfg(tmp_path, preset="trig", N=16, M=300, epsilons=epsilons,
               test_functions=["cos", "tanh"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out), "--assert"]) == 4
    cells = [(phi, eps) for eps in epsilons for phi in ("cos", "tanh")]
    gate = [("cos", 0.2), ("tanh", 0.2)]
    assert [(r.phi, r.epsilon) for r in reports] == cells + (gate if richardson else [])
    assert capsys.readouterr().err.splitlines() == [
        "assert failed: phi=%s eps=0.2: %s=%.3g exceeds 3*SE=%.3g"
        % (r.phi, label, r.gap, 3.0 * r.combined_se) for r in reports[-2:]]


def test_largest_bootstrap_seed_wraps(tmp_path):
    # this seed gives node 8's Kolmogorov bootstrap the sub-seed 2**64 - 1,
    # so the TV bootstrap's seed + 1 wraps to 0
    cfg = _cfg(tmp_path, preset="trig", N=16, M=200, epsilons=[0.4, 0.2, 0.1])
    out = tmp_path / "o"
    assert _run(["rate-scan", "--config", cfg, "--out", str(out),
                 "--seed", "18446744073708480341"]) == 0
    assert _read_csv(out / "distances.csv")


def test_seed_override_changes_samples_and_manifest(tmp_path):
    cfg = _cfg(tmp_path, preset="trig", N=16, M=200, epsilons=[0.25])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run(["thm2", "--config", cfg, "--out", str(out_a)]) == 0
    assert _run(["thm2", "--config", cfg, "--out", str(out_b),
                 "--seed", "999"]) == 0
    rows_a = _read_csv(out_a / "thm2.csv")
    rows_b = _read_csv(out_b / "thm2.csv")
    assert rows_a[0]["lhs"] != rows_b[0]["lhs"]
    doc = json.loads((out_b / "manifest.json").read_text())
    assert doc["config"]["seed"] == 999


# ---------------------------------------------------------------------------
# kernel-check
# ---------------------------------------------------------------------------


def test_kernel_check_brownian_exact(tmp_path):
    cfg = _cfg(tmp_path, N=64, M=2000, H_list=[0.5], t_list=[0.25, 1.0],
               cov_pairs=[[1.0, 0.5], [0.5, 0.25]])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out),
                 "--assert"]) == 0
    rows = _read_csv(out / "kernel.csv")
    kinds = {r["kind"] for r in rows}
    assert kinds == {"l2mass", "covariance"}  # no varmargin at H = 1/2
    for r in rows:
        if r["kind"] == "l2mass":
            assert float(r["err"]) == 0.0
        else:
            t, s = float(r["t"]), float(r["s"])
            assert float(r["target"]) == min(t, s)
            assert abs(float(r["z"])) <= 3.0


def test_kernel_check_rough_and_smooth(tmp_path):
    cfg = _cfg(tmp_path, N=128, M=4000, H_list=[0.3, 0.7], t_list=[0.5, 1.0],
               cov_pairs=[[1.0, 0.5]])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out),
                 "--assert"]) == 0
    rows = _read_csv(out / "kernel.csv")
    mass = [r for r in rows if r["kind"] == "l2mass"]
    assert len(mass) == 4
    for r in mass:
        rel = abs(float(r["err"])) / float(r["target"])
        assert rel <= 1e-3
    margins = [r for r in rows if r["kind"] == "varmargin"]
    assert [float(r["H"]) for r in margins] == [0.7]
    assert float(margins[0]["value"]) >= 0.0


@pytest.mark.parametrize("H", [0.002, 0.05, 0.1, 0.999, 0.9999])
def test_kernel_check_extreme_hurst_index_exits_cleanly(tmp_path, capsys, H):
    # s = t - w rounds to t near the right end of the mass quadrature when H
    # is small, and u^(1/a0) underflows at its left end when H is near 0 or 1
    cfg = _cfg(tmp_path, N=8, M=100, H_list=[H], t_list=[1.0],
               cov_pairs=[[1.0, 0.5]])
    out = tmp_path / "o"
    code = _run(["kernel-check", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 0 and err == ""
    mass = [r for r in _read_csv(out / "kernel.csv") if r["kind"] == "l2mass"]
    assert abs(float(mass[0]["err"])) <= 1e-3 * float(mass[0]["target"])


def test_kernel_check_draws_each_increment_once(tmp_path, monkeypatch):
    # one draw of each chunk serves every H: three H values over two chunks
    # read the M x N increment table once, not once per H
    from volfluct import simulate
    rows = simulate._increment_rows
    drawn = []

    def counted(*args):
        block = rows(*args)
        drawn.append(block.size)
        return block

    monkeypatch.setattr(simulate, "_increment_rows", counted)
    N, M = 16, simulate._CHUNK_ROWS + 37
    assert len(simulate._chunks(M)) == 2
    cfg = _cfg(tmp_path, N=N, M=M, H_list=[0.3, 0.5, 0.7], t_list=[1.0],
               cov_pairs=[[1.0, 0.5]])
    assert _run(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sum(drawn) == M * N


def test_kernel_check_rejects_params_other_than_sigma0(tmp_path, capsys):
    # a misspelled sigma0 would otherwise run silently as sigma0 = 1
    cfg = _cfg(tmp_path, N=16, M=200, H_list=[0.7], params={"sigmo0": 2.0})
    assert _run(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: params: kernel-check takes only sigma0, got sigmo0\n"


# ---------------------------------------------------------------------------
# numerical failure paths
# ---------------------------------------------------------------------------


def test_divergent_limit_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, preset="linear-growth", params={"a": 1.0},
               T=800.0, N=1024)
    assert _run(["limit", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical divergence" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset,params,message", [
    ("linear-growth", {"a": 1e300}, "limit path diverged at node 2 (t=0.125)"),
    ("trig", {"kappa": 1e300}, "derivative field diverged at node 1 (t=0.0625)"),
    ("fbm-trig", {"kappa": 1e300}, "derivative field diverged at node 1 (t=0.0625)"),
])
def test_divergent_solver_prints_one_line(tmp_path, capfd, preset, params,
                                          message):
    # an overflow in a deterministic solver must reach stderr as the message
    # alone, with no numpy RuntimeWarning ahead of it (the filter makes one
    # an error); the fbm preset runs the kernel branch at H = 0.7
    H = {"H": 0.7} if preset.startswith("fbm-") else {}
    cfg = _cfg(tmp_path, preset=preset, params=params, N=16, M=200, **H)
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capfd.readouterr().err.splitlines() == ["numerical divergence: " + message]


def test_kernel_check_huge_horizon_exits_3(tmp_path, capsys):
    # a Python float power of the horizon overflows where numpy would give
    # inf; that is a divergence, not a traceback
    doc = dict(N=8, M=100, H_list=[0.7])
    cfg = _cfg(tmp_path, T=1e300, t_list=[1e300], cov_pairs=[[1e300, 5e299]], **doc)
    assert _run(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical divergence: kernel-check: float overflow"]
    cfg = _cfg(tmp_path, T=1e200, t_list=[1e200], cov_pairs=[[1e200, 5e199]], **doc)
    # the covariance sums of squares overflow to inf, silently
    assert _run(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_kernel_check_nan_se_fails_the_covariance_gate(tmp_path, capsys):
    # the sums of squares overflow, so the covariance SE is NaN: its z is
    # NaN and the gate fails rather than pass on a z of 0
    cfg = _cfg(tmp_path, T=1e200, t_list=[1e200], cov_pairs=[[1e200, 5e199]],
               N=8, M=100, H_list=[0.7])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out), "--assert"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "assert failed: covariance H=0.7 (t=1e+200, s=5e+199): |z|=nan > 3"]
    cov, = [r for r in _read_csv(out / "kernel.csv") if r["kind"] == "covariance"]
    assert math.isnan(float(cov["se"])) and math.isnan(float(cov["z"]))


def test_kernel_check_underflowing_mass_passes_its_gate(tmp_path, capsys):
    # at t = 1e-250 the mass and t^(2H) both underflow to 0: a relative
    # error of 0/0 is 0, so the gate passes and the row is written
    cfg = _cfg(tmp_path, t_list=[1e-250], H_list=[0.7], N=8, M=100, cov_pairs=[])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out), "--assert"]) == 0
    assert capsys.readouterr().err == ""
    mass, = [r for r in _read_csv(out / "kernel.csv") if r["kind"] == "l2mass"]
    assert float(mass["value"]) == 0.0 and float(mass["target"]) == 0.0


@pytest.mark.parametrize("cov_pairs,messages", [
    ([], ["varmargin H=0.7: minimum margin nan < 0"]),
    ([[1e230, 1e230]], ["covariance H=0.7 (t=1e+230, s=1e+230): |z|=nan > 3",
                        "varmargin H=0.7: minimum margin nan < 0"]),
], ids=["margin", "margin-and-covariance"])
def test_kernel_check_nan_margin_fails_its_gate(tmp_path, capsys, cov_pairs, messages):
    # on a huge horizon the variance margins are inf - inf: a NaN margin
    # fails the gate, and no numpy warning reaches stderr
    cfg = _cfg(tmp_path, T=1e230, t_list=[1.0], H_list=[0.7], N=8, M=100,
               cov_pairs=cov_pairs)
    assert _run(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--assert"]) == 4
    assert capsys.readouterr().err.splitlines() == ["assert failed: " + m for m in messages]


def _zero_draw(seed, grid, m0, m1, out):
    out[...] = 0.0
    return out


@pytest.mark.parametrize("name,patch,message", [
    ("kernel_l2_mass", lambda f: lambda p, t: 1.01 * f(p, t),
     "l2mass H=0.7 t=1: relative error 0.01 > 1e-3"),
    ("variance_lower_bound_const", lambda f: lambda p, sigma0: 10.0 * f(p, sigma0),
     "varmargin H=0.7: minimum margin -1.16 < 0"),
    ("_draw", lambda f: _zero_draw, "covariance H=0.7 (t=1, s=0.5): |z|=inf > 3"),
], ids=["l2mass", "varmargin", "covariance"])
def test_kernel_check_gate_messages(tmp_path, capsys, monkeypatch, name, patch, message):
    # each gate, forced to fail on its own, prints its one message
    monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
    cfg = _cfg(tmp_path, N=8, M=100, H_list=[0.7], t_list=[1.0], cov_pairs=[[1.0, 0.5]])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out), "--assert"]) == 4
    assert capsys.readouterr().err.splitlines() == ["assert failed: " + message]
    if name == "_draw":  # zero increments: a zero SE under a nonzero error
        cov, = [r for r in _read_csv(out / "kernel.csv") if r["kind"] == "covariance"]
        assert cov["z"] == "-inf"


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

# scipy.integrate pulls in the other three; only the kernel quadrature needs it
_QUADRATURE_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                       "scipy.linalg")


def _fresh_interpreter(code, args):
    """Run code in a fresh interpreter, as the battery and the benchmark
    start each job, and return the JSON on its last stdout line."""
    src = os.path.dirname(os.path.dirname(volfluct.__file__))
    env = dict(os.environ, VF_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code] + args, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_COLD_START = """
import json, sys
from volfluct.cli import main
thm2, rate, kc, out = sys.argv[1:]
codes = [main(["thm2", "--config", thm2, "--out", out + "/thm2"]),
         main(["rate-scan", "--config", rate, "--out", out + "/rate"])]
loaded = [m for m in %r if m in sys.modules]
codes.append(main(["kernel-check", "--config", kc, "--out", out + "/kc"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "integrate_after": "scipy.integrate" in sys.modules}))
""" % (_QUADRATURE_MODULES,)


def test_simulation_commands_do_not_import_quadrature(tmp_path):
    args = [_cfg(tmp_path, "thm2.json", preset="fbm-trig", H=0.7, N=16, M=200,
                 epsilons=[0.2, 0.1]),
            _cfg(tmp_path, "rate.json", preset="trig", N=16, M=200),
            _cfg(tmp_path, "kc.json", N=16, M=200, H_list=[0.7], t_list=[1.0],
                 cov_pairs=[[1.0, 0.5]]),
            str(tmp_path / "o")]
    doc = _fresh_interpreter(_COLD_START, args)
    assert doc["codes"] == [0, 0, 0]
    assert doc["loaded"] == []
    # the lazy import still serves kernel-check's quadrature
    assert (tmp_path / "o" / "kc" / "kernel.csv").is_file()
    assert doc["integrate_after"]


# set-up is numpy and volfluct alone: scipy.special (ndtri, expit, beta,
# hyp2f1) loads at the first draw or the first fBm kernel, and the thread
# pool only when VF_THREADS > 1
_LAZY_MODULES = ("scipy.special", "concurrent.futures")

_SET_UP = """
import json, sys
from volfluct.cli import _prepare, load_config, main
trig, mult, last, out = sys.argv[1:]
lazy = %r
_prepare(load_config(trig))
_prepare(load_config(mult))
code = main(["limit", "--config", trig, "--out", out + "/limit"])
loaded = [m for m in lazy if m in sys.modules]
codes = [code, 0]
if last.endswith("thm2.json"):
    codes[1] = main(["thm2", "--config", last, "--out", out + "/thm2"])
else:
    _prepare(load_config(last))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "after": [m for m in lazy if m in sys.modules]}))
""" % (_LAZY_MODULES,)


@pytest.mark.parametrize("last", ["thm2", "fbm"])
def test_set_up_does_not_import_scipy_special(tmp_path, last):
    trig = _cfg(tmp_path, "trig.json", preset="trig", N=16, M=200)
    mult = _cfg(tmp_path, "mult.json", preset="multiplicative", N=16, M=200)
    then = {"thm2": _cfg(tmp_path, "thm2.json", preset="multiplicative",
                         N=16, M=200, epsilons=[0.1]),
            "fbm": _cfg(tmp_path, "fbm.json", preset="fbm-trig", H=0.7,
                        N=16, M=200)}[last]
    doc = _fresh_interpreter(_SET_UP, [trig, mult, then, str(tmp_path / "o")])
    assert doc["codes"] == [0, 0]
    assert doc["loaded"] == []
    # the first draw, or the fBm kernel's c_H and hyp2f1, loads it (and
    # scipy.special itself imports concurrent.futures)
    assert "scipy.special" in doc["after"]


# ---------------------------------------------------------------------------
# exit-time garbage collection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command,doc,code", [
    ("limit", {"N": 16}, 0),
    ("limit", {"N": 1}, 2),
    # the x0 = 1e160 divergence config of the driver tests
    ("thm2", {"preset": "multiplicative", "x0": 1e160, "N": 16, "M": 300,
              "epsilons": [0.5]}, 3),
    ("rate-scan", {"N": 16}, 4),
], ids=["ok", "config-error", "divergence", "gate-failure"])
def test_main_freezes_the_collector_on_every_exit(tmp_path, monkeypatch,
                                                  command, doc, code):
    # a stand-in rate-scan reports one failed gate, so --assert exits 4
    monkeypatch.setitem(cli._RUNNERS, "rate-scan",
                        lambda cfg, threads: ["stand-in gate"])
    gc.unfreeze()
    assert _run([command, "--config", _cfg(tmp_path, **doc),
                 "--out", str(tmp_path / "o"), "--assert"]) == code
    assert gc.get_freeze_count() > 0


def test_main_freezes_the_collector_when_argparse_exits():
    gc.unfreeze()
    with pytest.raises(SystemExit):
        main(["thm2"])                      # --config is required
    assert gc.get_freeze_count() > 0


_EXIT_STATE = """
import gc, json, sys
from volfluct.cli import main
code = main(["thm2", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "unfrozen": len(gc.get_objects()),
                  "frozen": gc.get_freeze_count(),
                  "special": "scipy.special" in sys.modules}))
"""


def test_exit_leaves_almost_nothing_for_the_collector(tmp_path):
    # thm2 draws, so scipy.special and its ~40,000 objects are loaded; the
    # interpreter's collections at exit pass over the unfrozen ones only
    cfg = _cfg(tmp_path, preset="trig", N=16, M=200, epsilons=[0.2, 0.1])
    doc = _fresh_interpreter(_EXIT_STATE, [cfg, str(tmp_path / "o")])
    assert doc["code"] == 0 and doc["special"]
    assert doc["unfrozen"] < 0.01 * doc["frozen"]


# ---------------------------------------------------------------------------
# scripts/summarize.py
# ---------------------------------------------------------------------------


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_prints_header_of_empty_csv(tmp_path, capsys):
    # no t_list and no cov_pairs: kernel.csv holds the header and no rows
    cfg = _cfg(tmp_path, N=16, M=200, H_list=[0.3], t_list=[], cov_pairs=[])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "kernel.csv").read_text().splitlines()) == 1
    summarize = _load_script("summarize")
    capsys.readouterr()
    assert summarize.run([str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== %s" % (out / "kernel.csv")
    assert lines[1].split() == ["kind", "H", "t", "s", "value", "target", "z"]
    assert len(lines) == 2


def test_summarize_reports_each_path_without_artifacts(tmp_path, capsys):
    cfg = _cfg(tmp_path, N=16)
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    summarize = _load_script("summarize")
    capsys.readouterr()
    typo, empty = tmp_path / "typo", tmp_path / "empty"
    empty.mkdir()
    # a file, a missing path and an empty directory each get one line
    assert summarize.run([cfg, str(typo), str(out), str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "== %s" % (out / "variance.csv")
    err = captured.err.splitlines()
    assert [line.split(": ")[1] for line in err] == [cfg, str(typo), str(empty)]
    assert all(line.startswith("summarize: ") for line in err)


# ---------------------------------------------------------------------------
# scripts/check_battery.py
# ---------------------------------------------------------------------------


def _check_battery(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))  # for its run_all import
    return _load_script("check_battery")


@pytest.mark.parametrize("got,want,expected", [
    ("a,b\n1.5,ok\n", "a,b\n1.5,ok\n", (0.0, True)),
    # tolerance at 1: 1e-9 relative plus 1e-12 absolute
    ("a\n1.0000000005\n", "a\n1\n", (float("1.0000000005") - 1.0, True)),
    ("a\n1.0000000011\n", "a\n1\n", (float("1.0000000011") - 1.0, False)),
    ("a\n1e-13\n", "a\n0\n", (1e-13, True)),    # absolute where want is 0
    ("a\nnan\n", "a\n1\n", (math.inf, False)),
    ("a\n1\n", "a\nnan\n", (math.inf, False)),
    ("a\nnan\n", "a\nnan\n", (0.0, True)),
    ("a\n-0\n", "a\n0\n", (0.0, True)),
    ("a,b\n1,ok\n", "a,b\n1,degenerate\n", (0.0, False)),
    ("a,b\n1,2\n", "a,b\n1\n", (math.inf, False)),
    ("a\n1\n2\n", "a\n1\n", (math.inf, False)),
], ids=["identical", "inside", "outside", "at-zero", "nan-got", "nan-want",
        "nan-both", "signed-zero", "text", "row-length", "row-count"])
def test_check_battery_compare(tmp_path, monkeypatch, got, want, expected):
    compare = _check_battery(monkeypatch).compare
    (tmp_path / "got.csv").write_text(got)
    (tmp_path / "want.csv").write_text(want)
    assert compare(tmp_path / "got.csv", tmp_path / "want.csv") == expected


def test_check_battery_runs_only_the_named_jobs(tmp_path, monkeypatch):
    module = _check_battery(monkeypatch)
    ran = []

    def fake_main(argv):
        ran.append(pathlib.Path(argv[2]).name)
        return 0

    monkeypatch.setattr(module, "main", fake_main)
    module.check(tmp_path, {"rate_scan_multiplicative.json", "thm2_multiplicative.json"})
    # in battery order, whatever order the names came in
    assert ran == ["rate_scan_multiplicative.json", "thm2_multiplicative.json"]


def test_check_battery_flags_a_csv_not_in_out(tmp_path, monkeypatch, capsys):
    # a job that writes the committed CSVs and one more fails on the new one
    module = _check_battery(monkeypatch)
    extra = []

    def fake_main(argv):
        committed = REPO / json.loads(pathlib.Path(argv[2]).read_text())["out_dir"]
        fresh = pathlib.Path(argv[4])
        fresh.mkdir(parents=True)
        for want in committed.glob("*.csv"):
            (fresh / want.name).write_bytes(want.read_bytes())
        for name in extra:
            (fresh / name).write_text("a\n1\n")
        return 0

    monkeypatch.setattr(module, "main", fake_main)
    job = {"thm2_multiplicative.json"}
    assert module.check(tmp_path / "a", job)
    extra.append("new.csv")
    assert not module.check(tmp_path / "b", job)
    assert capsys.readouterr().out.splitlines()[-2:] == ["  thm2.csv       identical",
                                                         "  new.csv        not in out/"]


def test_check_battery_refuses_an_unknown_config():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "check_battery.py"),
                           "thm2_multiplicative.json", "nope.json"],
                          capture_output=True, text=True, env=env, cwd=REPO)
    assert proc.returncode == 2
    assert "unknown config nope.json" in proc.stderr
    assert proc.stdout == ""
