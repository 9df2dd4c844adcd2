"""Experiment runner.

Subcommands: `limit` (deterministic limit path and Var(Y_t)), `rate-scan`
(strong and distributional convergence rates over an epsilon sweep), `thm2`
(two-sided weak-expansion check), `kernel-check` (fBm kernel identities,
synthesized covariance, variance lower bound).

Config is a single JSON document; unknown keys are rejected so that a
misspelled sweep cannot silently invalidate a rate fit.  Outputs are CSV
with 17 significant digits plus a manifest echoing the resolved config.
Exit codes: 0 success, 2 config error, 3 numerical divergence, 4 gate
failure under --assert.  VF_THREADS caps simulation workers and must not
change any output byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .deterministic import (DivergenceError, TimeGrid,
                            solve_deterministic_limit,
                            solve_derivative_field, variance_of_Y)
from .kernels import (ConvergenceError, bounds_for, check_assumptions,
                      fbm_covariance, fbm_kernel_matrix, fbm_kernel_params,
                      kernel_l2_mass, make_preset, variance_lower_bound_const)
from .simulate import coupled_terminal_samples, increment_chunks
from .stats import (GATE_SE, distance_report, parse_test_function,
                    rate_fit, rms_with_se, thm2_report, thm2_richardson)

_SNAP_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "additive-unit"
    params: Dict[str, float] = field(default_factory=dict)
    x0: float = 1.0
    T: float = 1.0
    N: int = 256
    M: int = 10000
    seed: int = 12345
    epsilons: Tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    H: Optional[float] = None
    observe_times: Optional[Tuple[float, ...]] = None
    test_functions: Tuple[str, ...] = ("cos", "tanh")
    out_dir: str = "out"
    H_list: Tuple[float, ...] = (0.3, 0.5, 0.7)
    t_list: Tuple[float, ...] = (0.25, 0.5, 1.0)
    cov_pairs: Tuple[Tuple[float, float], ...] = (
        (1.0, 0.5), (1.0, 0.25), (0.5, 0.25), (1.0, 1.0), (0.5, 0.5), (0.75, 0.25))


def _real(v) -> float:
    # float() would take true as 1.0 and "inf" or "nan" as numbers
    x = float(v)
    if isinstance(v, bool) or not math.isfinite(x):
        raise ValueError("must be a finite real number, got %r" % (v,))
    return x


def _floats(v) -> Tuple[float, ...]:
    return tuple(_real(e) for e in v)


def _pair(v) -> Tuple[float, float]:
    # checked before unpacking, which would fail with Python's own message
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("entries must be (t, s) pairs")
    return _real(v[0]), _real(v[1])


def _integer(v) -> int:
    # int() would truncate 16.9 to 16; integral floats such as 1e5 pass
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError("must be an integer, got %r" % (v,))
    return int(v)


# one converter per ExperimentConfig field, in field order so the first bad
# field names the error; the defaults live only in the dataclass
_CONVERTERS = dict(
    preset=str, params=lambda v: {str(k): _real(p) for k, p in dict(v).items()},
    x0=_real, T=_real, N=_integer, M=_integer, seed=_integer, epsilons=_floats,
    H=lambda v: None if v is None else _real(v),
    observe_times=lambda v: None if v is None else _floats(v),
    test_functions=lambda v: tuple(str(p) for p in v), out_dir=str,
    H_list=_floats, t_list=_floats,
    cov_pairs=lambda v: tuple(_pair(p) for p in v))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def load_config(path: str, out_override: Optional[str] = None,
                seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a JSON config, applying CLI overrides."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config file: not valid JSON (%s)" % exc) from exc
    _require(isinstance(doc, dict), "config file: top level must be an object")

    unknown = sorted(set(doc) - set(_CONVERTERS))
    _require(not unknown, "unknown config keys: %s" % ", ".join(unknown))

    merged = dict(doc)
    if out_override is not None:
        merged["out_dir"] = out_override
    if seed_override is not None:
        merged["seed"] = seed_override

    values = {}
    for name, convert in _CONVERTERS.items():
        if name in merged:
            try:
                values[name] = convert(merged[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError("%s: %s" % (name, exc)) from exc
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    _require(2 <= cfg.N <= 4096, "N: must be in [2, 4096], got %d" % cfg.N)
    _require(cfg.M >= 100, "M: must be at least 100, got %d" % cfg.M)
    _require(cfg.T > 0.0, "T: must be positive, got %g" % cfg.T)
    _require(0 <= cfg.seed < 2 ** 64, "seed: must fit in uint64")
    _require(len(cfg.epsilons) >= 1, "epsilons: must be non-empty")
    for e in cfg.epsilons:
        _require(0.0 < e < 1.0, "epsilons: values must be in (0,1), got %g" % e)
    for a, b in zip(cfg.epsilons, cfg.epsilons[1:]):
        _require(b < a, "epsilons: must be strictly decreasing")

    fbm_family = cfg.preset.startswith("fbm")
    has_h = cfg.H is not None or "H" in cfg.params
    if fbm_family:
        _require(has_h, "H: required for preset %r" % cfg.preset)
        _require(not (cfg.H is not None and "H" in cfg.params),
                 "H: given both as top-level key and in params")
        hval = cfg.H if cfg.H is not None else cfg.params["H"]
        _require(0.0 < hval < 1.0, "H: must be in (0,1), got %g" % hval)
    else:
        _require(not has_h,
                 "H: only meaningful for fbm presets, not %r" % cfg.preset)

    for h in cfg.H_list:
        _require(0.0 < h < 1.0, "H_list: values must be in (0,1), got %g" % h)
    _require(len(cfg.H_list) >= 1, "H_list: must be non-empty")
    for t in cfg.t_list:
        _require(0.0 < t <= cfg.T, "t_list: values must be in (0, T], got %g" % t)
    for pair in cfg.cov_pairs:
        for v in pair:
            _require(0.0 < v <= cfg.T,
                     "cov_pairs: times must be in (0, T], got %g" % v)
    if cfg.observe_times is not None:
        for t in cfg.observe_times:
            _require(0.0 < t <= cfg.T,
                     "observe_times: values must be in (0, T], got %g" % t)
    seen = set()
    for phi in cfg.test_functions:
        try:
            key = parse_test_function(phi)
        except ValueError as exc:
            raise ConfigError("test_functions: %s" % exc) from exc
        _require(key not in seen,
                 "test_functions: %r repeats an earlier entry" % (phi,))
        seen.add(key)


def _snap_node(t: float, grid: TimeGrid, what: str) -> int:
    """Map a time to its grid node index, erring if it falls between nodes."""
    j = int(round(t / grid.delta))
    _require(1 <= j <= grid.N and abs(j * grid.delta - t) <= _SNAP_TOL * max(grid.T, 1.0),
             "%s: time %g does not lie on the N=%d grid" % (what, t, grid.N))
    return j


def _observe_nodes(cfg: ExperimentConfig, grid: TimeGrid) -> List[int]:
    """The requested nodes (default: T/2) plus the terminal node, which the
    strong and terminal-distance gates always read."""
    if cfg.observe_times is None:
        return sorted({grid.N // 2, grid.N})
    return sorted({grid.N} | {_snap_node(t, grid, "observe_times")
                              for t in cfg.observe_times})


def _coefficients(cfg: ExperimentConfig):
    params = dict(cfg.params)
    if cfg.H is not None:
        params["H"] = cfg.H
    try:
        return make_preset(cfg.preset, **params)
    except ValueError as exc:
        raise ConfigError("preset: %s" % exc) from exc


def _sub_seed(base: int, i: int, j: int = 0) -> int:
    # distinct bootstrap streams per (sweep position, observation node)
    return (base + 1000003 * (i + 1) + 7919 * (j + 1)) % 2 ** 64


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(out_dir: str, name: str, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    try:
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise ConfigError("out_dir: %s" % exc) from exc


def _write_manifest(cfg: ExperimentConfig, command: str) -> None:
    doc = {"version": __version__, "command": command,
           "config": dataclasses.asdict(cfg),
           "numerics": {"numpy": np.__version__, "scipy": scipy.__version__}}
    try:
        with open(os.path.join(cfg.out_dir, "manifest.json"), "w",
                  newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError("out_dir: %s" % exc) from exc


def _prepare(cfg: ExperimentConfig):
    coeff = _coefficients(cfg)
    grid = TimeGrid(T=cfg.T, N=cfg.N)
    x = solve_deterministic_limit(coeff, grid, cfg.x0)
    D = solve_derivative_field(coeff, grid, x)
    var = variance_of_Y(D, grid)
    return coeff, grid, x, D, var


# ---------------------------------------------------------------------------
# Subcommand runners.  Each returns a list of gate-failure messages, which
# only matters when --assert is set.
# ---------------------------------------------------------------------------


def run_limit(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """deterministic limit path and fluctuation variance"""
    coeff, grid, x, D, var = _prepare(cfg)
    _write_csv(cfg.out_dir, "limit.csv", ("t", "x"),
               list(zip(grid.nodes, x.values)))
    _write_csv(cfg.out_dir, "variance.csv", ("t", "var_y"),
               list(zip(grid.nodes, var.values)))
    _write_manifest(cfg, "limit")

    failures: List[str] = []
    lo = min(float(x.values.min()), cfg.x0) - 1.0
    hi = max(float(x.values.max()), cfg.x0) + 1.0
    probe = np.linspace(lo, hi, 33)
    report = check_assumptions(coeff, bounds_for(coeff, grid), grid, probe)
    failures.extend("assumption check: %s bound violated at t=%.6g, s=%.6g, x=%.6g"
                    % v for v in report.violations)
    if not report.ok and not report.violations:
        failures.append("assumption check: integrability budget exceeded by %.3g"
                        % -report.integrability_margin)
    if not np.all(np.isfinite(var.values)):
        failures.append("variance path contains non-finite values")
    return failures


def run_rate_scan(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """strong and distributional convergence rates over the epsilon sweep"""
    _require(len(cfg.epsilons) >= 3, "epsilons: rate scan needs at least 3")
    coeff, grid, x, D, var = _prepare(cfg)
    obs = _observe_nodes(cfg, grid)
    N = grid.N

    dist_rows: List[list] = []
    strong_rows: List[list] = []
    # (metric, node) -> list of (eps, distance)
    dist_series: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    second_track: List[Tuple[float, float, float]] = []
    failures_dist: List[str] = []

    samples = coupled_terminal_samples(coeff, x, D, cfg.epsilons, cfg.M,
                                       cfg.seed, observe=obs, threads=threads)
    Y, Z = samples["Y"], samples["Z"]
    for i, eps in enumerate(cfg.epsilons):
        X, Xt = samples["X"][eps], samples["Xt"][eps]
        for j in obs:
            rep = distance_report(eps, Xt[j], Y[j],
                                  seed=_sub_seed(cfg.seed, i, j))
            dist_rows.append([grid.nodes[j], eps, rep.kolmogorov,
                              rep.kolmogorov_se, rep.tv_histogram, rep.tv_se,
                              rep.bins, rep.n_a])
            # the true laws satisfy kolmogorov <= tv; the estimators get
            # bootstrap slack
            slack = 4.0 * math.hypot(rep.kolmogorov_se, rep.tv_se)
            if rep.kolmogorov > rep.tv_histogram + slack:
                failures_dist.append(
                    "distance ordering t=%g eps=%g: kolmogorov %.3g > "
                    "tv %.3g + %.3g" % (grid.nodes[j], eps, rep.kolmogorov,
                                        rep.tv_histogram, slack))
            dist_series.setdefault(("kolmogorov", j), []).append(
                (eps, rep.kolmogorov))
            dist_series.setdefault(("tv_histogram", j), []).append(
                (eps, rep.tv_histogram))

        x_gap, x_gap_se = rms_with_se(X[N] - x.values[N])
        xt_y, xt_y_se = rms_with_se(Xt[N] - Y[N])
        second, second_se = rms_with_se((Xt[N] - Y[N]) / eps - 0.5 * Z[N])
        strong_rows.append([eps, x_gap, x_gap_se, xt_y, xt_y_se,
                            second, second_se])
        second_track.append((eps, second, second_se))

    fit_rows: List[list] = []
    fits: Dict[Tuple[str, int], Optional[object]] = {}

    def _fit_row(metric: str, node: int, pts: List[Tuple[float, float]]) -> None:
        try:
            f = rate_fit(pts)
            fit_rows.append([metric, grid.nodes[node], f.slope, f.intercept,
                             f.residual, f.n_points, "ok"])
            fits[(metric, node)] = f
        except ValueError:
            nan = float("nan")
            fit_rows.append([metric, grid.nodes[node], nan, nan, nan,
                             len(pts), "below resolution"])
            fits[(metric, node)] = None

    # strong.csv rows: epsilon, then value and SE per metric
    for k, metric in enumerate(("rms_x_gap", "rms_xt_y", "rms_second")):
        _fit_row(metric, N, [(row[0], row[1 + 2 * k]) for row in strong_rows])
    for j in obs:
        _fit_row("kolmogorov", j, dist_series[("kolmogorov", j)])
        _fit_row("tv_histogram", j, dist_series[("tv_histogram", j)])

    _write_csv(cfg.out_dir, "distances.csv",
               ("t", "epsilon", "kolmogorov", "kolmogorov_se",
                "tv_histogram", "tv_se", "bins", "n"), dist_rows)
    _write_csv(cfg.out_dir, "strong.csv",
               ("epsilon", "rms_x_gap", "rms_x_gap_se", "rms_xt_y",
                "rms_xt_y_se", "rms_second", "rms_second_se"), strong_rows)
    _write_csv(cfg.out_dir, "ratefit.csv",
               ("metric", "t", "slope", "intercept", "residual",
                "n_points", "status"), fit_rows)
    _write_manifest(cfg, "rate-scan")

    failures: List[str] = list(failures_dist)
    for metric in ("rms_x_gap", "rms_xt_y"):
        f = fits[(metric, N)]
        if f is None:
            continue  # exact pathwise equality; nothing to gate
        if not 0.85 <= f.slope <= 1.15:
            failures.append("%s slope %.3f outside [0.85, 1.15]"
                            % (metric, f.slope))
    fk = fits[("kolmogorov", N)]
    if fk is not None and fk.slope < 0.75:
        failures.append("kolmogorov slope %.3f below 0.75" % fk.slope)
    for (e1, v1, s1), (e2, v2, s2) in zip(second_track, second_track[1:]):
        if v2 > v1 + 2.0 * math.hypot(s1, s2):
            failures.append(
                "rms_second not decreasing: %.3g (eps=%g) -> %.3g (eps=%g)"
                % (v1, e1, v2, e2))
    return failures


def run_thm2(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """two-sided weak-expansion check at each (epsilon, test function)"""
    _require(len(cfg.test_functions) >= 1, "test_functions: must be non-empty")
    coeff, grid, x, D, var = _prepare(cfg)
    N = grid.N
    varY = float(var.values[N])

    rows: List[list] = []
    failures: List[str] = []
    nan = float("nan")
    # the expansion is a limit in eps: with a pair (e, e/2) in the sweep the
    # gate is on the smallest pair's Richardson value, else on the last eps
    halving = [e for e in cfg.epsilons if e / 2.0 in cfg.epsilons]
    samples = coupled_terminal_samples(coeff, x, D, cfg.epsilons, cfg.M,
                                       cfg.seed, observe=(N,), with_dzdy=True,
                                       threads=threads)
    Y = samples["Y"][N]
    Xt = {eps: samples["Xt"][eps][N] for eps in cfg.epsilons}
    delta = samples["Z"][N] * Y - samples["dzdy"][N]
    for eps in cfg.epsilons:
        gated = not halving and eps == cfg.epsilons[-1]
        for phi in cfg.test_functions:
            try:
                rep = thm2_report(phi, eps, Xt[eps], Y, delta, varY)
            except ValueError:
                rows.append([eps, phi, nan, nan, nan, nan, nan, nan, nan,
                             "degenerate"])
                failures.append("phi=%s eps=%g: degenerate Var(Y_T)"
                                % (phi, eps))
                continue
            combined = rep.combined_se
            if combined > 0.0:
                ratio = rep.gap / combined
            else:
                ratio = 0.0 if rep.gap == 0.0 else float("inf")
            rows.append([eps, phi, rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se,
                         rep.gap, combined, ratio, "ok"])
            if gated and not rep.passes:
                failures.append(
                    "phi=%s eps=%g: |lhs-rhs|=%.3g exceeds %g*SE=%.3g"
                    % (phi, eps, rep.gap, GATE_SE, GATE_SE * combined))
    if halving:
        eps = min(halving)
        for phi in cfg.test_functions:
            try:
                rep = thm2_richardson(phi, eps, Xt[eps], Xt[eps / 2.0], Y,
                                      delta, varY)
            except ValueError:
                continue  # degenerate Var(Y_T), already a failure above
            if not rep.passes:
                failures.append(
                    "phi=%s eps=%g: |2 lhs(eps/2) - lhs(eps) - rhs|=%.3g "
                    "exceeds %g*SE=%.3g" % (phi, eps, rep.gap, GATE_SE,
                                            GATE_SE * rep.combined_se))

    _write_csv(cfg.out_dir, "thm2.csv",
               ("epsilon", "phi", "lhs", "lhs_se", "rhs", "rhs_se",
                "abs_gap", "combined_se", "gap_over_se", "status"), rows)
    _write_manifest(cfg, "thm2")
    return failures


def run_kernel_check(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """fBm kernel mass identity, synthesized covariance, variance bound"""
    grid = TimeGrid(T=cfg.T, N=cfg.N)
    sigma0 = float(cfg.params.get("sigma0", 1.0))
    rows: List[list] = []
    failures: List[str] = []

    pair_nodes = [( _snap_node(t, grid, "cov_pairs"),
                    _snap_node(s, grid, "cov_pairs")) for t, s in cfg.cov_pairs]

    for H in cfg.H_list:
        p = fbm_kernel_params(H)
        for t in cfg.t_list:
            mass = kernel_l2_mass(p, t)
            target = t ** (2.0 * H)
            err = mass - target
            rows.append(["l2mass", H, t, "", mass, target, err, 0.0, 0.0])
            if abs(err) / target > 1e-3:
                failures.append("l2mass H=%g t=%g: relative error %.3g > 1e-3"
                                % (H, t, abs(err) / target))

        Kmat = fbm_kernel_matrix(p, grid)

        # synthesized fBm covariance at the requested node pairs
        needed = sorted({j for pair in pair_nodes for j in pair})
        cols = Kmat[:, needed]
        sums = np.zeros(len(pair_nodes))
        sqs = np.zeros(len(pair_nodes))
        for dB in increment_chunks(cfg.seed, grid, cfg.M):
            bh = dB @ cols
            for k, (ja, jb) in enumerate(pair_nodes):
                prod = bh[:, needed.index(ja)] * bh[:, needed.index(jb)]
                sums[k] += prod.sum()
                sqs[k] += (prod * prod).sum()
        for k, ((t, s), (ja, jb)) in enumerate(zip(cfg.cov_pairs, pair_nodes)):
            mean = sums[k] / cfg.M
            svar = (sqs[k] - cfg.M * mean * mean) / (cfg.M - 1)
            se = math.sqrt(max(svar, 0.0) / cfg.M)
            target = fbm_covariance(H, grid.nodes[ja], grid.nodes[jb])
            err = mean - target
            z = err / se if se > 0.0 else 0.0
            rows.append(["covariance", H, t, s, mean, target, err, se, z])
            if abs(z) > 3.0:
                failures.append("covariance H=%g (t=%g, s=%g): |z|=%.2f > 3"
                                % (H, t, s, abs(z)))

        # quadrature variance against the stated lower bound, H > 1/2 only
        if H > 0.5 + 1e-6:
            cstar = variance_lower_bound_const(p, sigma0)
            var_path = grid.delta * (sigma0 * Kmat) ** 2
            var_path = var_path.sum(axis=0)
            margins = (var_path[1:]
                       - 0.5 * cstar * grid.nodes[1:] ** (2.0 * H))
            worst = int(np.argmin(margins))
            margin = float(margins[worst])
            rows.append(["varmargin", H, grid.nodes[worst + 1], "",
                         margin, 0.0, margin, 0.0, 0.0])
            if margin < 0.0:
                failures.append("varmargin H=%g: minimum margin %.3g < 0"
                                % (H, margin))

    _write_csv(cfg.out_dir, "kernel.csv",
               ("kind", "H", "t", "s", "value", "target", "err", "se", "z"),
               rows)
    _write_manifest(cfg, "kernel-check")
    return failures


_RUNNERS = {"limit": run_limit, "rate-scan": run_rate_scan,
            "thm2": run_thm2, "kernel-check": run_kernel_check}


def _threads_from_env() -> int:
    raw = os.environ.get("VF_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError("VF_THREADS: not an integer: %r" % raw) from None
    _require(n >= 1, "VF_THREADS: must be at least 1, got %d" % n)
    return n


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="volfluct",
        description="small-noise stochastic Volterra equation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--assert", dest="check", action="store_true",
                       help="exit 4 when an acceptance gate fails")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, out_override=args.out,
                          seed_override=args.seed)
        threads = _threads_from_env()
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir: %s" % exc) from exc
        failures = _RUNNERS[args.command](cfg, threads=threads)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DivergenceError, ConvergenceError) as exc:
        print("numerical divergence: %s" % exc, file=sys.stderr)
        return 3

    if args.check and failures:
        for msg in failures:
            print("assert failed: %s" % msg, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
