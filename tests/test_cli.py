import csv
import dataclasses
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

import volfluct
from volfluct import cli
from volfluct.cli import main
from volfluct.kernels import AssumptionReport

REPO = pathlib.Path(__file__).resolve().parents[1]


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


def _stub_assumptions(monkeypatch, violations, integrability_margin):
    report = AssumptionReport(
        checked=1, violations=violations, growth_margin=0.0,
        integrability_margin=integrability_margin,
        ok=not violations and integrability_margin >= 0.0)
    monkeypatch.setattr(cli, "check_assumptions", lambda *args: report)


def test_limit_assumption_violation_fails_assert(tmp_path, capsys,
                                                 monkeypatch):
    _stub_assumptions(monkeypatch, [("growth", 0.5, 0.25, 1.0)], 0.1)
    cfg = _cfg(tmp_path, preset="trig", N=16)
    out = str(tmp_path / "o")
    assert _run(["limit", "--config", cfg, "--out", out]) == 0
    assert _run(["limit", "--config", cfg, "--out", out, "--assert"]) == 4
    err = capsys.readouterr().err
    assert ("assert failed: assumption check: growth bound violated at "
            "t=0.5, s=0.25, x=1\n") in err
    assert "Traceback" not in err


def test_limit_integrability_budget_alone_fails_assert(tmp_path, capsys,
                                                       monkeypatch):
    _stub_assumptions(monkeypatch, [], -0.25)
    cfg = _cfg(tmp_path, preset="trig", N=16)
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--assert"]) == 4
    assert ("assert failed: assumption check: integrability budget "
            "exceeded by 0.25") in capsys.readouterr().err


def test_limit_rerun_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, preset="trig", N=32)
    out = tmp_path / "o"
    names = ("limit.csv", "variance.csv", "manifest.json")
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    first = _read_bytes(out, names)
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 0
    assert _read_bytes(out, names) == first


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
    assert doc["numerics"] == {"numpy": np.__version__,
                               "scipy": scipy.__version__}


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
    cfg = _cfg(tmp_path, **doc)
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ({"cov_pairs": [[1.0, 0.5, 0.25]]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"cov_pairs": [[1.0]]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"cov_pairs": [1.0]}, "cov_pairs: entries must be (t, s) pairs"),
    ({"test_functions": ["cos:"]}, "test_functions: test function scale is empty"),
    ({"test_functions": ["tanh:2", "cos", "tanh:2.0"]},
     "test_functions: 'tanh:2.0' repeats an earlier entry"),
])
def test_malformed_list_entries_name_their_field(tmp_path, capsys, doc, message):
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **doc))
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("N", 16.9), ("M", 200.5), ("seed", 3.7),
    ("N", True), ("M", False), ("seed", True),
])
def test_non_integral_counts_exit_2(tmp_path, capsys, field, value):
    # int() would silently run N = 16.9 as 16; the field must be named
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **{field: value}))
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % field)
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
])
def test_booleans_and_non_finite_reals_exit_2(tmp_path, capsys, field, doc):
    # float() would run x0 = true as 1.0 and carry "inf" into the solvers
    cfg = _cfg(tmp_path, **dict({"N": 16, "M": 200}, **doc))
    out = tmp_path / "o"
    assert _run(["limit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % field)
    assert "Traceback" not in err
    assert not out.exists()


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


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert _run(["limit", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["limit", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "JSON" in err


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
    shifted = _off_by(cli.thm2_richardson, 10.0)
    monkeypatch.setattr(cli, "thm2_richardson",
                        lambda phi, eps, *a: seen.append(eps) or
                        shifted(phi, eps, *a))
    cfg = _cfg(tmp_path, preset="trig", N=16, M=300,
               epsilons=[0.4, 0.2, 0.1, 0.05], test_functions=["cos"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 4
    err = capsys.readouterr().err
    assert seen == [0.1]  # pairs (0.4, 0.2), (0.2, 0.1), (0.1, 0.05)
    assert "phi=cos eps=0.1: |2 lhs(eps/2) - lhs(eps) - rhs|=10" in err
    assert "|lhs-rhs|" not in err  # fixed-eps rows are reported only
    assert len(_read_csv(out / "thm2.csv")) == 4


def test_thm2_assert_without_halving_pair_gates_last_eps(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.setattr(cli, "thm2_richardson",
                        lambda *a: pytest.fail("no (e, e/2) pair to gate"))
    monkeypatch.setattr(cli, "thm2_report", _off_by(cli.thm2_report, 10.0))
    cfg = _cfg(tmp_path, preset="trig", N=16, M=300, epsilons=[0.3, 0.2],
               test_functions=["cos"])
    out = tmp_path / "o"
    assert _run(["thm2", "--config", cfg, "--out", str(out),
                 "--assert"]) == 4
    err = capsys.readouterr().err
    assert "phi=cos eps=0.2: |lhs-rhs|=10 exceeds 3*SE" in err
    assert "eps=0.3" not in err


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
])
def test_divergent_solver_prints_one_line(tmp_path, capfd, preset, params,
                                          message):
    # an overflow in a deterministic solver must reach stderr as the message
    # alone, with no numpy RuntimeWarning ahead of it (the filter makes one
    # an error)
    cfg = _cfg(tmp_path, preset=preset, params=params, N=16, M=200)
    assert _run(["limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capfd.readouterr().err.splitlines() == ["numerical divergence: " + message]


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

# scipy.integrate pulls in the other three; only the kernel quadrature needs it
_QUADRATURE_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                       "scipy.linalg")

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
    # a fresh interpreter, as the battery and the benchmark start each job
    args = [_cfg(tmp_path, "thm2.json", preset="fbm-trig", H=0.7, N=16, M=200,
                 epsilons=[0.2, 0.1]),
            _cfg(tmp_path, "rate.json", preset="trig", N=16, M=200),
            _cfg(tmp_path, "kc.json", N=16, M=200, H_list=[0.7], t_list=[1.0],
                 cov_pairs=[[1.0, 0.5]]),
            str(tmp_path / "o")]
    src = os.path.dirname(os.path.dirname(volfluct.__file__))
    env = dict(os.environ, VF_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _COLD_START] + args, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0]
    assert doc["loaded"] == []
    # the lazy import still serves kernel-check's quadrature
    assert (tmp_path / "o" / "kc" / "kernel.csv").is_file()
    assert doc["integrate_after"]


# ---------------------------------------------------------------------------
# scripts/summarize.py
# ---------------------------------------------------------------------------


def test_summarize_prints_header_of_empty_csv(tmp_path, capsys):
    # no t_list and no cov_pairs: kernel.csv holds the header and no rows
    cfg = _cfg(tmp_path, N=16, M=200, H_list=[0.3], t_list=[], cov_pairs=[])
    out = tmp_path / "o"
    assert _run(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "kernel.csv").read_text().splitlines()) == 1
    spec = importlib.util.spec_from_file_location(
        "summarize", REPO / "scripts" / "summarize.py")
    summarize = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(summarize)
    capsys.readouterr()
    assert summarize.run([str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== %s" % (out / "kernel.csv")
    assert lines[1].split() == ["kind", "H", "t", "s", "value", "target", "z"]
    assert len(lines) == 2
