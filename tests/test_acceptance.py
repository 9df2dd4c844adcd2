"""End-to-end acceptance checks, one test per numbered criterion.

Each test drives the public surface (mostly the CLI) at the stated
parameters and registers a one-line verdict that conftest prints after
the run.  Heavy Monte Carlo artifacts are shared through module-scoped
fixtures so the sweep work is done once.
"""
import csv
import dataclasses
import json
import math
import os
import pathlib

import numpy as np
import pytest

from conftest import dense_D
from volfluct.cli import main
from volfluct.kernels import make_preset
from volfluct.deterministic import (TimeGrid, solve_deterministic_limit,
                                    solve_derivative_field, variance_of_Y)
from volfluct import simulate as sim
from volfluct import stats as st

REPO = pathlib.Path(__file__).resolve().parents[1]
SEED = 12345
SWEEP = [0.4, 0.2, 0.1, 0.05]
C5_EPS = 0.05
# outputs are thread-invariant; more workers than cores only add GIL
# hand-offs and system time (ROADMAP item 6)
THREADS = min(4, os.cpu_count() or 1)


def _run_cli(args, threads=str(THREADS)):
    old = os.environ.get("VF_THREADS")
    os.environ["VF_THREADS"] = threads
    try:
        return main(list(args))
    finally:
        if old is None:
            os.environ.pop("VF_THREADS", None)
        else:
            os.environ["VF_THREADS"] = old


def _write_cfg(path, **doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def sweep_m1e4(workdir):
    """rate-scan at M=1e4 for both presets: criteria 3 and 6."""
    outs = {}
    for preset in ("trig", "multiplicative"):
        cfg = _write_cfg(workdir / ("c3_%s.json" % preset), preset=preset,
                         N=256, M=10000, epsilons=SWEEP, seed=SEED)
        out = workdir / ("c3_" + preset)
        assert _run_cli(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
        outs[preset] = out
    return outs


@pytest.fixture(scope="module")
def sweep_m1e5(workdir):
    """rate-scan at M=1e5 for both presets: criterion 4."""
    outs = {}
    for preset in ("trig", "multiplicative"):
        cfg = _write_cfg(workdir / ("c4_%s.json" % preset), preset=preset,
                         N=256, M=100000, epsilons=SWEEP, seed=SEED)
        out = workdir / ("c4_" + preset)
        assert _run_cli(["rate-scan", "--config", cfg, "--out", str(out)]) == 0
        outs[preset] = out
    return outs


@pytest.fixture(scope="module")
def thm2_m1e6():
    """Coupled terminal samples at eps=0.05 and eps/2=0.025, M=1e6, for
    both presets: criterion 5.

    One driver pass covers both eps, so the Brownian increments, and with
    them Y, Z and dzdy, are the same paths at both eps; only Xt moves.
    """
    eps = C5_EPS
    grid = TimeGrid(T=1.0, N=256)
    N = grid.N
    outs = {}
    for preset in ("trig", "multiplicative"):
        c = make_preset(preset)
        x = solve_deterministic_limit(c, grid, 1.0)
        D = solve_derivative_field(c, grid, x)
        varY = float(variance_of_Y(D, grid).values[N])
        s = sim.coupled_terminal_samples(c, x, D, (eps, eps / 2.0),
                                         1000000, SEED, observe=(N,),
                                         with_dzdy=True, threads=THREADS)
        outs[preset] = dict(
            Y=s["Y"][N], Xt=s["Xt"][eps][N], Xt_half=s["Xt"][eps / 2.0][N],
            delta=s["Z"][N] * s["Y"][N] - s["dzdy"][N], varY=varY)
    return outs


@pytest.fixture(scope="module")
def kernel_check_c2(workdir):
    """kernel-check at the battery shape for H 0.3 and 0.7: criterion 2."""
    cfg = _write_cfg(workdir / "c2.json", N=512, M=100000,
                     H_list=[0.3, 0.7], t_list=[1.0], seed=SEED)
    out = workdir / "c2"
    assert _run_cli(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_criterion_1_kernel_mass_identity(workdir, record_criterion):
    cfg = _write_cfg(workdir / "c1.json", N=64, M=500,
                     H_list=[0.3, 0.5, 0.7, 0.9], t_list=[0.25, 0.5, 1.0],
                     cov_pairs=[[1.0, 0.5]], seed=SEED)
    out = workdir / "c1"
    assert _run_cli(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    rels = []
    for row in _read_csv(out / "kernel.csv"):
        if row["kind"] != "l2mass":
            continue
        rels.append(abs(float(row["err"])) / float(row["target"]))
    record_criterion(1, len(rels) == 12 and max(rels) <= 1e-3,
                     "12 (H, t) pairs, max rel err %.2e" % max(rels))


def test_criterion_2_fbm_covariance(kernel_check_c2, record_criterion):
    zs = [abs(float(r["z"])) for r in _read_csv(kernel_check_c2 / "kernel.csv")
          if r["kind"] == "covariance"]
    record_criterion(2, len(zs) == 12 and max(zs) <= 3.0,
                     "6 pairs x 2 H values, max |z| = %.2f" % max(zs))


def _slopes(out, metrics, t="1"):
    picked = {}
    for row in _read_csv(out / "ratefit.csv"):
        if row["metric"] in metrics and row["t"] == t:
            picked[row["metric"]] = (row["status"],
                                     float(row["slope"]))
    return picked


def test_criterion_3_strong_rates(sweep_m1e4, record_criterion):
    ok = True
    parts = []
    for preset, out in sweep_m1e4.items():
        got = _slopes(out, ("rms_x_gap", "rms_xt_y"))
        for metric in ("rms_x_gap", "rms_xt_y"):
            status, slope = got[metric]
            ok = ok and status == "ok" and 0.85 <= slope <= 1.15
            parts.append("%s %s %.3f" % (preset, metric, slope))
    record_criterion(3, ok, ", ".join(parts))


def test_criterion_4_kolmogorov_rate(sweep_m1e5, record_criterion):
    ok = True
    parts = []
    for preset, out in sweep_m1e5.items():
        status, slope = _slopes(out, ("kolmogorov",))["kolmogorov"]
        ok = ok and status == "ok" and slope >= 0.75
        parts.append("%s %.3f" % (preset, slope))
    record_criterion(4, ok, "terminal-node slopes " + ", ".join(parts))


def test_criterion_5_weak_expansion(thm2_m1e6, record_criterion):
    """The expansion is a limit in eps with an O(eps) remainder, so the gate
    is on the Richardson value 2 lhs(eps/2) - lhs(eps), formed per path on
    coupled samples; the fixed-eps gap is reported, not gated."""
    eps = C5_EPS
    ok = True
    gaps, oracles, coeff = [], [], ""
    for preset, s in thm2_m1e6.items():
        for phi in ("cos", "tanh"):
            r = st.thm2_r(phi, s["Y"], s["delta"], s["varY"])
            ell = st.thm2_ell(phi, s["Xt"], s["Y"], eps)
            ell_half = st.thm2_ell(phi, s["Xt_half"], s["Y"], eps / 2.0)
            rep = st.thm2_report(phi, eps, ell, r)
            rich = st.thm2_report(phi, eps, 2.0 * ell_half - ell, r)
            ok = ok and rich.passes
            gaps.append("%s/%s %.2f->%.2f" % (preset, phi,
                                              rep.gap / rep.combined_se,
                                              rich.gap / rich.combined_se))
            if preset != "multiplicative":
                continue
            f = st.resolve_test_function(phi)
            # independent quadrature oracle for the flat-geometry preset
            oracle = st.gauss_hermite_mean(
                lambda xi: f(xi) * (xi ** 3 - 3.0 * xi)) / 2.0
            z = abs(rep.rhs - oracle) / rep.rhs_se
            ok = ok and z <= 3.0
            oracles.append("oracle/%s %.2f" % (phi, z))
            if phi == "cos":
                # first-order coefficient against eps exp(-1/2) 7/24;
                # reported only, the Euler grid's O(1/N) bias is resolved
                c1, c1_se = st._mean_se((ell - ell_half) / (eps / 2.0))
                coeff = ("; multiplicative/cos first-order coefficient "
                         "%.4f+-%.4f (closed form %.4f)"
                         % (c1, c1_se, math.exp(-0.5) * 7.0 / 24.0))
    record_criterion(5, ok, "gap/SE at eps=%g -> extrapolated: %s; %s%s"
                     % (eps, ", ".join(gaps), ", ".join(oracles), coeff))


def test_criterion_6_second_order_decreasing(sweep_m1e4, record_criterion):
    ok = True
    parts = []
    for preset, out in sweep_m1e4.items():
        rows = _read_csv(out / "strong.csv")
        vals = [(float(r["rms_second"]), float(r["rms_second_se"]))
                for r in rows]
        for (a, sa), (b, sb) in zip(vals, vals[1:]):
            ok = ok and b <= a + 2.0 * math.hypot(sa, sb)
        parts.append("%s %s" % (preset,
                                "->".join("%.3g" % v for v, _ in vals)))
    record_criterion(6, ok, "; ".join(parts))


def _assert_csv_close(got, want):
    """Same cells; numeric ones within rel 1e-9 + abs 1e-12, others equal."""
    with open(got, newline="") as fg, open(want, newline="") as fw:
        rows_g, rows_w = list(csv.reader(fg)), list(csv.reader(fw))
    assert [len(r) for r in rows_g] == [len(r) for r in rows_w], got
    for row_g, row_w in zip(rows_g, rows_w):
        for a, b in zip(row_g, row_w):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                assert a == b, (got, a, b)
                continue
            assert np.isclose(fa, fb, rtol=1e-9, atol=1e-12, equal_nan=True), \
                (got, a, b)


def test_golden_artifacts_match_committed_out(sweep_m1e4, workdir):
    """Fresh runs of committed battery configs against ``out/`` at a stated
    tolerance: the bytes are stable only within one numpy/BLAS build, the
    numbers across builds."""
    fresh = {"rate-scan-" + preset: out for preset, out in sweep_m1e4.items()}
    fresh["limit-fbm"] = workdir / "golden_limit_fbm"
    assert _run_cli(["limit", "--config",
                     str(REPO / "scripts" / "configs" / "limit_fbm.json"),
                     "--out", str(fresh["limit-fbm"])]) == 0
    for name, out in fresh.items():
        golden = REPO / "out" / name
        csvs = sorted(p.name for p in golden.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in out.glob("*.csv")), name
        for csv_name in csvs:
            _assert_csv_close(out / csv_name, golden / csv_name)


def test_golden_thm2_rows_match_committed_out(thm2_m1e6):
    """The criterion-5 paths are the committed thm2 configs' paths, so their
    rows are compared with ``out/`` at the golden tolerance without a new
    simulation."""
    for preset, s in thm2_m1e6.items():
        cfg = json.loads((REPO / "scripts" / "configs"
                          / ("thm2_%s.json" % preset)).read_text())
        assert (cfg["preset"], cfg["x0"], cfg["N"], cfg["M"], cfg["seed"]) == \
            (preset, 1.0, 256, 1000000, SEED)
        Xt = {C5_EPS: s["Xt"], C5_EPS / 2.0: s["Xt_half"]}
        rows = _read_csv(REPO / "out" / ("thm2-" + preset) / "thm2.csv")
        assert [(float(r["epsilon"]), r["phi"]) for r in rows] == \
            [(e, phi) for e in cfg["epsilons"] for phi in cfg["test_functions"]]
        for r in rows:
            eps = float(r["epsilon"])
            rep = st.thm2_report(
                r["phi"], eps, st.thm2_ell(r["phi"], Xt[eps], s["Y"], eps),
                st.thm2_r(r["phi"], s["Y"], s["delta"], s["varY"]))
            np.testing.assert_allclose(
                [rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se],
                [float(r[k]) for k in ("lhs", "lhs_se", "rhs", "rhs_se")],
                rtol=1e-9, atol=1e-12, err_msg="%s %s" % (preset, r["phi"]))


def test_golden_kernel_check_rows_match_committed_out(kernel_check_c2):
    """The criterion-2 run is the committed kernel-check config at H 0.3 and
    0.7, so its covariance rows are compared with those rows of ``out/`` at
    the golden tolerance without a new simulation."""
    cfg = json.loads((REPO / "scripts" / "configs" / "kernel_check.json").read_text())
    assert (cfg["N"], cfg["M"], cfg["seed"], cfg.get("T", 1.0)) == (512, 100000, SEED, 1.0)
    assert "cov_pairs" not in cfg

    def covariance(path):
        return [r for r in _read_csv(path)
                if r["kind"] == "covariance" and float(r["H"]) in (0.3, 0.7)]

    got = covariance(kernel_check_c2 / "kernel.csv")
    want = covariance(REPO / "out" / "kernel-check" / "kernel.csv")
    keys = ("H", "t", "s")
    assert len(got) == 12
    assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
    values = ("value", "target", "err", "se", "z")
    for g, w in zip(got, want):
        np.testing.assert_allclose([float(g[k]) for k in values],
                                   [float(w[k]) for k in values],
                                   rtol=1e-9, atol=1e-12, err_msg=str(w))


def test_criterion_7_variance_margin(workdir, record_criterion):
    cfg = _write_cfg(workdir / "c7.json", N=512, M=100, H_list=[0.7],
                     t_list=[1.0], cov_pairs=[[1.0, 0.5]],
                     params={"sigma0": 1.0}, seed=SEED)
    out = workdir / "c7"
    assert _run_cli(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
    rows = [r for r in _read_csv(out / "kernel.csv")
            if r["kind"] == "varmargin"]
    margin = float(rows[0]["value"])
    record_criterion(7, len(rows) == 1 and margin >= 0.0,
                     "minimum node margin %.4f at t=%s"
                     % (margin, rows[0]["t"]))


def test_criterion_8_exactness(record_criterion):
    grid = TimeGrid(T=1.0, N=64)
    checks = []

    # zero diffusion: the fluctuation vanishes identically
    zero = lambda t, s, x: np.zeros(np.shape(x))
    c = dataclasses.replace(make_preset("linear-growth", a=0.8),
                            sigma=zero, dsigma=zero, d2sigma=zero)
    x = solve_deterministic_limit(c, grid, 1.2)
    batch = sim.sample_brownian(50, grid, SEED)
    Xt = (sim.simulate_X(c, grid, 1.2, 0.25, batch).values - x.values) / 0.25
    checks.append(bool(np.all(Xt == 0.0)))

    # pure additive noise with dyadic eps: Xt and Y bitwise equal
    c = make_preset("additive-unit")
    x = solve_deterministic_limit(c, grid, 0.0)
    Xt = (sim.simulate_X(c, grid, 0.0, 0.25, batch).values - x.values) / 0.25
    Y = sim.simulate_Y_euler(c, grid, x, batch)
    checks.append(bool(np.array_equal(Xt, Y.values)))
    checks.append(st.kolmogorov_distance(Xt[:, -1], Y.values[:, -1]) == 0.0)
    checks.append(st.tv_histogram(Xt[:, -1], Y.values[:, -1], 16) == 0.0)

    # flat drift curvature and state-free sigma: Z and the rhs vanish
    c = make_preset("linear-growth", a=0.8)
    x = solve_deterministic_limit(c, grid, 1.0)
    D = solve_derivative_field(c, grid, x)
    Y = sim.simulate_Y_euler(c, grid, x, batch)
    Z = sim.simulate_Z(c, grid, x, Y, batch)
    checks.append(bool(np.all(Z.values == 0.0)))
    DZ = sim.simulate_DZ_terminal(c, grid, x, Y, D, batch)
    # the Skorokhod term delta(Z DY) per path
    delta = (Z.values[:, -1] * Y.values[:, -1]
             - (DZ @ dense_D(D)[:, grid.N]) * grid.delta)
    varY = float((dense_D(D)[:, grid.N] ** 2).sum() * grid.delta)
    rhs, _ = st._mean_se(st.thm2_r("cos", Y.values[:, -1], delta, varY))
    checks.append(rhs == 0.0)

    record_criterion(8, all(checks),
                     "%d/%d identities hold exactly"
                     % (sum(checks), len(checks)))


def test_criterion_9_determinism(workdir, record_criterion):
    jobs = {
        "limit": dict(preset="trig", N=64, seed=SEED),
        "rate-scan": dict(preset="trig", N=32, M=4100,
                          epsilons=[0.4, 0.2, 0.1], seed=SEED),
        "thm2": dict(preset="multiplicative", N=32, M=2500,
                     epsilons=[0.25, 0.125], seed=SEED),
        "kernel-check": dict(N=64, M=2500, H_list=[0.3, 0.7],
                             t_list=[1.0], cov_pairs=[[1.0, 0.5]],
                             seed=SEED),
    }
    ok = True
    for command, doc in jobs.items():
        cfg = _write_cfg(workdir / ("c9_%s.json" % command), **doc)
        out = workdir / ("c9_" + command.replace("-", "_"))
        snaps = []
        for threads in ("1", "1", "4"):
            assert _run_cli([command, "--config", cfg, "--out", str(out)],
                            threads=threads) == 0
            snaps.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir())})
        ok = ok and snaps[0] == snaps[1] == snaps[2]
    record_criterion(9, ok, "4 subcommands, reruns and VF_THREADS in {1, 4}")
