"""Experiment runner.

Subcommands: `limit` (deterministic limit path and Var(Y_t)), `rate-scan`
(strong and distributional convergence rates over an epsilon sweep), `thm2`
(two-sided weak-expansion check), `kernel-check` (fBm kernel identities,
synthesized covariance, variance lower bound).

Config is a single JSON document; unknown keys are rejected so that a
misspelled sweep cannot silently invalidate a rate fit.  Outputs are CSV
with 17 significant digits plus a manifest echoing the resolved config.
Exit codes: 0 success, 2 config error (also a run whose arrays cannot be
allocated), 3 numerical divergence (also a Python float overflow), 4 gate
failure under --assert.  A config error past 240 characters is cut in its middle.
VF_THREADS caps the workers of the one chunk loop, `simulate._map_chunks`,
which the rate-scan and thm2 driver and kernel-check's covariance synthesis
run through; it must not change any output byte.

`main` calls `gc.freeze()` on every way out, argparse's SystemExit
included.  The objects alive then, some 40,000 of them mostly from numpy
and scipy.special, move to the permanent generation, which the
interpreter's full collections at exit skip; those collections cost
50-70 ms per process and run no volfluct code.  An in-process caller (the
tests, scripts/run_all.py, scripts/check_battery.py) keeps a working
collector for objects created after the call, but cycles among objects
alive when `main` returns are never collected (`gc.unfreeze()` hands
them back).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from . import __version__
from .deterministic import (_MAX_STEPS, DivergenceError, TimeGrid,
                            solve_deterministic_limit,
                            solve_derivative_field, variance_of_Y)
from .kernels import (ConvergenceError, fbm_covariance, fbm_kernel_matrix,
                      fbm_kernel_params, kernel_l2_mass, make_preset,
                      variance_lower_bound_const)
from .simulate import (_CHUNK_ROWS, _RNG_SCHEME, _map_chunks,
                       coupled_terminal_samples)
from .stats import (GATE_SE, distance_report, rate_fit, resolve_test_function,
                    rms_with_se, thm2_ell, thm2_r, thm2_report)

_SNAP_TOL = 1e-9
# past this, numpy refuses an (M,) float64 array by its shape, before any
# allocation, with a ValueError instead of a MemoryError
_MAX_M = np.iinfo(np.intp).max // 8


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
    # JSON numbers only: float() would take true as 1.0, "1.5" as 1.5 and
    # "inf" or "nan" as numbers, and overflow on a 400-digit integer
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ValueError("must be a finite real number, got %r" % (v,))
    return float(v)


def _typed(kind: type, name: str):
    """A converter that takes one JSON type only: str() would run null as a
    directory named None, dict() would take [["a", 2.0]] as {"a": 2.0}, and
    iterating a string would read "0.4" as the entries '0', '.' and '4'."""
    def convert(v):
        if not isinstance(v, kind):
            raise ValueError("must be %s, got %r" % (name, v))
        return v
    return convert


_list, _string = _typed(list, "a list"), _typed(str, "a string")
_object = _typed(dict, "an object")


def _floats(v) -> Tuple[float, ...]:
    return tuple(_real(e) for e in _list(v))


def _pair(v) -> Tuple[float, float]:
    # checked before unpacking, which would fail with Python's own message
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError("entries must be (t, s) pairs")
    return _real(v[0]), _real(v[1])


def _integer(v) -> int:
    # JSON numbers only: int() would truncate 16.9 to 16 and take "16" as
    # 16; integral floats such as 1e5 pass
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or (isinstance(v, float) and not v.is_integer())):
        raise ValueError("must be an integer, got %r" % (v,))
    return int(v)


# one converter per ExperimentConfig field, in field order so the first bad
# field names the error; the defaults live only in the dataclass
_CONVERTERS = dict(
    preset=_string, params=lambda v: {k: _real(p) for k, p in _object(v).items()},
    x0=_real, T=_real, N=_integer, M=_integer, seed=_integer, epsilons=_floats,
    H=lambda v: None if v is None else _real(v),
    observe_times=lambda v: None if v is None else _floats(v),
    test_functions=lambda v: tuple(_string(p) for p in _list(v)),
    out_dir=_string,
    H_list=_floats, t_list=_floats,
    cov_pairs=lambda v: tuple(_pair(p) for p in _list(v)))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def load_config(path: str, out_override: Optional[str] = None,
                seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a JSON config, applying CLI overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config file: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config file: not valid JSON (%s)" % exc) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config file: not valid UTF-8 (%s)" % exc) from exc
    except RecursionError as exc:
        raise ConfigError("config file: nested too deeply") from exc
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
    # the fields every command reads; each runner checks its own before out_dir
    _require(2 <= cfg.N <= _MAX_STEPS, "N: must be in [2, %d], got %d" % (_MAX_STEPS, cfg.N))
    _require(cfg.T > 0.0, "T: must be positive, got %g" % cfg.T)
    _require("H" not in cfg.params, "params: give H as the top-level key, not in params")
    return cfg


def _check_draw(cfg: ExperimentConfig) -> None:
    """M and seed, which rate-scan, thm2 and kernel-check read."""
    _require(cfg.M >= 100, "M: must be at least 100, got %d" % cfg.M)
    _require(cfg.M <= _MAX_M, "M: must be at most %d, got %d" % (_MAX_M, cfg.M))
    _require(0 <= cfg.seed < 2 ** 64, "seed: must fit in uint64")


def _check_epsilons(cfg: ExperimentConfig) -> None:
    """The eps sweep, which rate-scan and thm2 read."""
    _require(len(cfg.epsilons) >= 1, "epsilons: must be non-empty")
    for e in cfg.epsilons:
        _require(0.0 < e < 1.0, "epsilons: values must be in (0,1), got %g" % e)
    for a, b in zip(cfg.epsilons, cfg.epsilons[1:]):
        _require(b < a, "epsilons: must be strictly decreasing")


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
    if cfg.preset.startswith("fbm"):
        _require(cfg.H is not None, "H: required for preset %r" % cfg.preset)
        _require(0.0 < cfg.H < 1.0, "H: must be in (0,1), got %g" % cfg.H)
    else:
        _require(cfg.H is None,
                 "H: only meaningful for fbm presets, not %r" % cfg.preset)
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


def _numerics() -> dict:
    """The numerical environment the outputs depend on: the numpy and
    scipy versions, numpy's BLAS, the CPU kernels numpy dispatches to, the
    Monte Carlo chunk size and the RNG scheme.  None depends on threads."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
            "numpy_cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
            "chunk_rows": _CHUNK_ROWS, "rng": _RNG_SCHEME}


def _write_manifest(cfg: ExperimentConfig, command: str) -> None:
    doc = {"version": __version__, "command": command,
           "config": dataclasses.asdict(cfg), "numerics": _numerics()}
    try:
        with open(os.path.join(cfg.out_dir, "manifest.json"), "w",
                  newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError("out_dir: %s" % exc) from exc


def _make_out_dir(cfg: ExperimentConfig) -> None:
    """Create out_dir; each runner calls it once its own config checks have
    passed, so a rejected config leaves no directory behind."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
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
# Subcommand runners.  Each builds its tables, then gates them in one pass
# and returns the list of gate-failure messages, which only matters when
# --assert is set.
# ---------------------------------------------------------------------------


def run_limit(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """deterministic limit path and fluctuation variance"""
    coeff, grid, x, D, var = _prepare(cfg)
    _make_out_dir(cfg)
    _write_csv(cfg.out_dir, "limit.csv", ("t", "x"),
               list(zip(grid.nodes, x.values)))
    _write_csv(cfg.out_dir, "variance.csv", ("t", "var_y"),
               list(zip(grid.nodes, var.values)))
    _write_manifest(cfg, "limit")
    return []  # no gate: a non-finite path has already exited 3


_STRONG = ("rms_x_gap", "rms_xt_y", "rms_second")


def _unresolved(samples: dict, x, varY: float) -> List[str]:
    """One failure per eps whose X equals the limit at T on every path
    although Var(Y_T) > 0: that eps is below float resolution, so its rows
    measure rounding, not the fluctuation."""
    N = x.grid.N
    if not varY > 0.0:
        return []
    return ["eps=%g: X_eps equals the limit path on every path (eps below "
            "float resolution)" % e
            for e, X in samples["X"].items() if (X[N] == x.values[N]).all()]


def _fit_rows(T: float, times: Sequence[float], dist_rows: List[list],
              strong_rows: List[list]) -> List[list]:
    """The ratefit.csv rows: the log-log fit over the eps sweep of each
    strong metric at T, then of Kolmogorov and TV at each observed time."""
    series = [(m, T, [(r[0], r[1 + 2 * k]) for r in strong_rows])
              for k, m in enumerate(_STRONG)]
    series += [(m, t, [(r[1], r[k]) for r in dist_rows if r[0] == t])
               for t in times for m, k in (("kolmogorov", 2), ("tv_histogram", 4))]
    rows = []
    nan = float("nan")
    for metric, t, pts in series:
        if not np.isfinite(pts).all():
            rows.append([metric, t, nan, nan, nan, len(pts), "non-finite"])
            continue
        try:
            f = rate_fit(pts)
            rows.append([metric, t, f.slope, f.intercept, f.residual, f.n_points, "ok"])
        except ValueError:
            rows.append([metric, t, nan, nan, nan, len(pts), "below resolution"])
    return rows


def run_rate_scan(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """strong and distributional convergence rates over the epsilon sweep"""
    _check_draw(cfg)
    _check_epsilons(cfg)
    if cfg.observe_times is not None:
        for t in cfg.observe_times:
            _require(0.0 < t <= cfg.T,
                     "observe_times: values must be in (0, T], got %g" % t)
    _require(len(cfg.epsilons) >= 3, "epsilons: rate scan needs at least 3")
    coeff, grid, x, D, var = _prepare(cfg)
    obs = _observe_nodes(cfg, grid)
    _make_out_dir(cfg)
    N = grid.N
    T = grid.nodes[N]

    samples = coupled_terminal_samples(coeff, x, D, cfg.epsilons, cfg.M,
                                       cfg.seed, observe=obs, threads=threads)
    Y, Z = samples["Y"], samples["Z"]
    dist_rows: List[list] = []
    strong_rows: List[list] = []
    for i, eps in enumerate(cfg.epsilons):
        X, Xt = samples["X"][eps], samples["Xt"][eps]
        for j in obs:
            rep = distance_report(eps, Xt[j], Y[j],
                                  seed=_sub_seed(cfg.seed, i, j))
            dist_rows.append([grid.nodes[j], eps, rep.kolmogorov,
                              rep.kolmogorov_se, rep.tv_histogram, rep.tv_se,
                              rep.bins, rep.n_a])
        # value and SE of each strong metric at T; at a tiny eps the second
        # order overflows to inf, which its gate then fails
        with np.errstate(over="ignore", invalid="ignore"):
            strong_rows.append([eps, *rms_with_se(X[N] - x.values[N]),
                                *rms_with_se(Xt[N] - Y[N]),
                                *rms_with_se((Xt[N] - Y[N]) / eps - 0.5 * Z[N])])
    fit_rows = _fit_rows(T, grid.nodes[obs], dist_rows, strong_rows)

    _write_csv(cfg.out_dir, "distances.csv",
               ("t", "epsilon", "kolmogorov", "kolmogorov_se",
                "tv_histogram", "tv_se", "bins", "n"), dist_rows)
    _write_csv(cfg.out_dir, "strong.csv",
               ("epsilon",) + tuple(h for m in _STRONG for h in (m, m + "_se")),
               strong_rows)
    _write_csv(cfg.out_dir, "ratefit.csv",
               ("metric", "t", "slope", "intercept", "residual",
                "n_points", "status"), fit_rows)
    _write_manifest(cfg, "rate-scan")

    # each gate fails unless its value is inside its bound, so NaN fails
    failures = _unresolved(samples, x, float(var.values[N]))
    for t, eps, kol, kol_se, tv, tv_se, _, _ in dist_rows:
        # the true laws satisfy kolmogorov <= tv; the estimators get
        # bootstrap slack
        slack = 4.0 * math.hypot(kol_se, tv_se)
        if not kol <= tv + slack:
            failures.append("distance ordering t=%g eps=%g: kolmogorov %.3g > "
                            "tv %.3g + %.3g" % (t, eps, kol, tv, slack))
    for metric, t, slope, _, _, _, status in fit_rows:
        if status == "below resolution" or t != T:
            continue  # a fit below resolution has nothing to gate
        if metric in ("rms_x_gap", "rms_xt_y") and not 0.85 <= slope <= 1.15:
            failures.append("%s slope %.3f outside [0.85, 1.15]" % (metric, slope))
        elif metric == "kolmogorov" and not slope >= 0.75:
            failures.append("kolmogorov slope %.3f below 0.75" % slope)
    for (e1, *_, v1, s1), (e2, *_, v2, s2) in zip(strong_rows, strong_rows[1:]):
        if not v2 <= v1 + 2.0 * math.hypot(s1, s2):
            failures.append(
                "rms_second not decreasing: %.3g (eps=%g) -> %.3g (eps=%g)"
                % (v1, e1, v2, e2))
    return failures


def _ratio(num: float, den: float) -> float:
    """num / den, NaN for a NaN den; for den = 0, 0 when num is 0 too, else
    +-inf with num's sign."""
    if den:
        return num / den
    return 0.0 if num == 0.0 else math.copysign(math.inf, num)


def run_thm2(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """two-sided weak-expansion check at each (epsilon, test function)"""
    _check_draw(cfg)
    _check_epsilons(cfg)
    _require(len(cfg.test_functions) >= 1, "test_functions: must be non-empty")
    for k, phi in enumerate(cfg.test_functions):
        try:
            resolve_test_function(phi)
        except ValueError as exc:
            raise ConfigError("test_functions: %s" % exc) from exc
        _require(phi not in cfg.test_functions[:k],
                 "test_functions: %r repeats an earlier entry" % (phi,))
    coeff, grid, x, D, var = _prepare(cfg)
    _make_out_dir(cfg)
    N = grid.N
    varY = float(var.values[N])

    samples = coupled_terminal_samples(coeff, x, D, cfg.epsilons, cfg.M,
                                       cfg.seed, observe=(N,), with_dzdy=True,
                                       threads=threads)
    cells = [(eps, phi) for eps in cfg.epsilons for phi in cfg.test_functions]
    if not varY > 0.0:
        rows = [[eps, phi] + [float("nan")] * 7 + ["degenerate"] for eps, phi in cells]
        failures = ["phi=%s eps=%g: degenerate Var(Y_T)" % (phi, eps) for eps, phi in cells]
    else:
        Y = samples["Y"][N]
        delta = samples["Z"][N] * Y - samples["dzdy"][N]
        r = {phi: thm2_r(phi, Y, delta, varY) for phi in cfg.test_functions}
        ell, reps, rows = {}, {}, []
        for eps, phi in cells:
            ell[eps, phi] = thm2_ell(phi, samples["Xt"][eps][N], Y, eps)
            rep = reps[eps, phi] = thm2_report(phi, eps, ell[eps, phi], r[phi])
            se = rep.combined_se
            rows.append([eps, phi, rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se,
                         rep.gap, se, _ratio(rep.gap, se),
                         "ok" if math.isfinite(se) else "non-finite se"])

        # the expansion is a limit in eps: with a pair (e, e/2) in the sweep
        # the gate is on the smallest pair's Richardson value, else on the
        # last eps's row
        halving = [e for e in cfg.epsilons if e / 2.0 in cfg.epsilons]
        e = min(halving, default=cfg.epsilons[-1])
        label = "|2 lhs(eps/2) - lhs(eps) - rhs|" if halving else "|lhs-rhs|"
        failures = _unresolved(samples, x, varY)
        for phi in cfg.test_functions:
            rep = (thm2_report(phi, e, 2.0 * ell[e / 2.0, phi] - ell[e, phi], r[phi])
                   if halving else reps[e, phi])
            if not math.isfinite(rep.combined_se):
                failures.append("phi=%s eps=%g: %s=%.3g has a non-finite SE (%.3g)"
                                % (phi, e, label, rep.gap, rep.combined_se))
            elif not rep.passes:
                failures.append("phi=%s eps=%g: %s=%.3g exceeds %g*SE=%.3g"
                                % (phi, e, label, rep.gap, GATE_SE,
                                   GATE_SE * rep.combined_se))

    _write_csv(cfg.out_dir, "thm2.csv",
               ("epsilon", "phi", "lhs", "lhs_se", "rhs", "rhs_se",
                "abs_gap", "combined_se", "gap_over_se", "status"), rows)
    _write_manifest(cfg, "thm2")
    return failures


def run_kernel_check(cfg: ExperimentConfig, threads: int = 1) -> List[str]:
    """fBm kernel mass identity, synthesized covariance, variance bound"""
    _check_draw(cfg)
    # H_list, t_list and cov_pairs are read by this command alone
    for h in cfg.H_list:
        _require(0.0 < h < 1.0, "H_list: values must be in (0,1), got %g" % h)
    _require(len(cfg.H_list) >= 1, "H_list: must be non-empty")
    unknown = sorted(set(cfg.params) - {"sigma0"})
    _require(not unknown, "params: kernel-check takes only sigma0, got %s"
             % ", ".join(unknown))
    grid = TimeGrid(T=cfg.T, N=cfg.N)
    sigma0 = float(cfg.params.get("sigma0", 1.0))

    for t in cfg.t_list:
        _require(0.0 < t <= cfg.T, "t_list: values must be in (0, T], got %g" % t)
    for pair in cfg.cov_pairs:
        for v in pair:
            _require(0.0 < v <= cfg.T,
                     "cov_pairs: times must be in (0, T], got %g" % v)
    pair_nodes = [( _snap_node(t, grid, "cov_pairs"),
                    _snap_node(s, grid, "cov_pairs")) for t, s in cfg.cov_pairs]
    needed = sorted({j for pair in pair_nodes for j in pair})
    _make_out_dir(cfg)

    # the deterministic rows of each H first, in the order that meets a
    # divergence where a per-H loop would; then one draw serves every H
    parts = []
    for H in cfg.H_list:
        p = fbm_kernel_params(H)
        mass = []
        for t in cfg.t_list:
            value = kernel_l2_mass(p, t)
            target = t ** (2.0 * H)
            mass.append(["l2mass", H, t, "", value, target, value - target, 0.0, 0.0])
        Kmat = fbm_kernel_matrix(p, grid)  # not cached: dropped once sliced
        # quadrature variance against the stated lower bound, H > 1/2 only
        margin = []
        if H > 0.5 + 1e-6:
            cstar = variance_lower_bound_const(p, sigma0)
            with np.errstate(over="ignore", invalid="ignore"):
                var_path = (grid.delta * (sigma0 * Kmat) ** 2).sum(axis=0)
                margins = var_path[1:] - 0.5 * cstar * grid.nodes[1:] ** (2.0 * H)
            worst = int(np.argmin(margins))
            value = float(margins[worst])
            margin.append(["varmargin", H, grid.nodes[worst + 1], "",
                           value, 0.0, value, 0.0, 0.0])
        parts.append((mass, Kmat[:, needed], margin))
        del Kmat

    # synthesized fBm covariance at the node pairs, from one draw per chunk
    # for every H, its partial sums added in chunk order; on a huge horizon
    # the sums of squares overflow, and the SE comes out inf or NaN
    pair_cols = [(needed.index(ja), needed.index(jb)) for ja, jb in pair_nodes]

    def work(m0: int, m1: int, dBt: np.ndarray) -> np.ndarray:
        """The chunk's (sum, sum of squares) of each (H, pair) product."""
        part = np.empty((2, len(parts), len(pair_cols)))
        # a pool worker does not inherit the caller's errstate
        with np.errstate(over="ignore", invalid="ignore"):
            for h, (_, cols, _) in enumerate(parts):
                bh = dBt.T @ cols
                for k, (a, b) in enumerate(pair_cols):
                    prod = bh[:, a] * bh[:, b]
                    part[:, h, k] = prod.sum(), (prod * prod).sum()
        return part

    with np.errstate(over="ignore", invalid="ignore"):
        sums, sqs = sum(_map_chunks(cfg.seed, grid, cfg.M, threads, work))

    rows: List[list] = []
    for H, (mass, _, margin), total, sq in zip(cfg.H_list, parts, sums, sqs):
        rows += mass
        for k, ((t, s), (ja, jb)) in enumerate(zip(cfg.cov_pairs, pair_nodes)):
            with np.errstate(over="ignore", invalid="ignore"):
                target = fbm_covariance(H, grid.nodes[ja], grid.nodes[jb])
                mean = total[k] / cfg.M
                svar = (sq[k] - cfg.M * mean * mean) / (cfg.M - 1)
                se = math.sqrt(max(svar, 0.0) / cfg.M)
                err = mean - target
                z = _ratio(err, se)
            rows.append(["covariance", H, t, s, mean, target, err, se, z])
        rows += margin

    # each gate fails unless its value is inside its bound, so NaN fails
    failures: List[str] = []
    for kind, H, t, s, value, target, err, _, z in rows:
        if kind == "l2mass" and not abs(_ratio(err, target)) <= 1e-3:
            failures.append("l2mass H=%g t=%g: relative error %.3g > 1e-3"
                            % (H, t, abs(_ratio(err, target))))
        elif kind == "covariance" and not abs(z) <= 3.0:
            failures.append("covariance H=%g (t=%g, s=%g): |z|=%.2f > 3"
                            % (H, t, s, abs(z)))
        elif kind == "varmargin" and not value >= 0.0:
            failures.append("varmargin H=%g: minimum margin %.3g < 0"
                            % (H, value))

    _write_csv(cfg.out_dir, "kernel.csv",
               ("kind", "H", "t", "s", "value", "target", "err", "se", "z"), rows)
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
    """Run one subcommand and return its exit code.  Freezes the garbage
    collector on the way out, so cycles among the objects alive then are
    never collected; see the module docstring."""
    try:
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
            failures = _RUNNERS[args.command](cfg, threads=threads)
        except (ConfigError, MemoryError) as exc:
            # a MemoryError: the config asks for arrays this machine cannot hold
            msg = str(exc) or "out of memory"
            if len(msg) > 240:  # only an echoed value makes it so long: cut its middle
                msg = "%s ...[%d characters]... %s" % (msg[:160], len(msg) - 220, msg[-60:])
            print("config error: %s" % msg, file=sys.stderr)
            return 2
        except (DivergenceError, ConvergenceError) as exc:
            print("numerical divergence: %s" % exc, file=sys.stderr)
            return 3
        except OverflowError:  # Python float arithmetic, where numpy would give inf
            print("numerical divergence: %s: float overflow" % args.command, file=sys.stderr)
            return 3

        if args.check and failures:
            for msg in failures:
                print("assert failed: %s" % msg, file=sys.stderr)
            return 4
        return 0
    finally:
        # every way out, SystemExit included; see the module docstring
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
