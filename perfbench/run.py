#!/usr/bin/env python3
"""The volfluct benchmark: three CLI workloads, one client, closed loop.

    python3 perfbench/run.py --workload rate-scan-trig --seed 1 \\
        --seconds 40 --trace 0

Run it from the repository root; it simulates with the sources under
src/ and writes only under .perfbench_work/.  Each timed run is one
``volfluct.cli.main`` invocation in a fresh interpreter, started after
the previous one has exited.  The benchmark writes the workload config
from --seed; the program sees only that file and an output directory.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
runs the same invocation under perfbench/traced.py (spans around each
layer's public calls) plus one-chunk engine probes, and prints the
per-layer metrics.  Every run also makes one invocation at the stored
reference seed and compares its CSVs with perfbench/reference/, and
checks that all invocations at the run's own seed wrote identical CSVs.
The last line of stdout is the JSON result; the lines before it are the
same numbers for people, with the numerical environment.

    python3 perfbench/run.py --workload NAME --update-reference

rewrites the stored reference of one workload from the current sources.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate
from traced import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

REFERENCE_SEED = 12345
# Cells may drift by 1-2 ulp between numpy/BLAS builds; a run fails only
# beyond |a - b| <= REL_TOL * max(|a|, |b|) + ABS_TOL, while every cell
# that differs at all is still counted and reported.
REL_TOL = 1e-9
ABS_TOL = 1e-12
HARD_LIMIT_S = 170.0  # a benchmark run must end within 180 s
SETUP_MIN = 3
CAL_BLOCKS = 16  # calibration blocks between timed samples, about 0.6 s
TIMED = ("t1", "setup")
TAIL_BEYOND = 10

# M is sized so one invocation takes a few seconds on a 2-core box while
# the layer each workload stresses still dominates its traced time.
WORKLOADS = {
    # the criterion-4 fixture's shape: bootstrap distances dominate, and
    # the 4-eps sweep redraws the same increments per eps
    "rate-scan-trig": ("rate-scan", {
        "preset": "trig", "x0": 1.0, "N": 256, "M": 4096,
        "epsilons": [0.4, 0.2, 0.1, 0.05]}),
    # the criterion-5 fixture's shape: state-only engines, one eps, no
    # bootstrap
    "thm2-multiplicative": ("thm2", {
        "preset": "multiplicative", "x0": 1.0, "N": 256, "M": 32768,
        "epsilons": [0.05], "test_functions": ["cos", "tanh"]}),
    # the only workload on the generic time-dependent engines; one full
    # 2048-row chunk, so the engines outweigh the one-off fill of the
    # hypergeometric kernel cache
    "fbm-trig-thm2": ("thm2", {
        "preset": "fbm-trig", "H": 0.7, "x0": 1.0, "N": 64, "M": 2048,
        "epsilons": [0.1, 0.05], "test_functions": ["cos", "tanh"]}),
}

CLI_CODE = "import sys; from volfluct.cli import main; sys.exit(main(sys.argv[1:]))"


def path_steps(cfg):
    return cfg["M"] * cfg["N"] * len(cfg["epsilons"])


# ---------------------------------------------------------------------------
# Artifact comparison
# ---------------------------------------------------------------------------


def read_artifacts(out_dir):
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), newline="") as fh:
                tables[name] = list(csv.reader(fh))
    return tables


def _shape(tables):
    return {name: (rows[0] if rows else [], len(rows), [len(r) for r in rows])
            for name, rows in tables.items()}


def _cell_error(a, b):
    """(relative error, within tolerance) of two differing CSV cells."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf, False
    diff = abs(x - y)
    scale = max(abs(x), abs(y))
    if scale == 0.0:  # e.g. "-0" against "0"
        return 0.0, True
    return diff / scale, diff <= REL_TOL * scale + ABS_TOL


def compare_artifacts(got, want):
    """Return (max relative error, cells differing, cells beyond tolerance)."""
    if _shape(got) != _shape(want):
        return math.inf, 1, 1
    worst, differ, beyond = 0.0, 0, 0
    for name, rows in want.items():
        for grow, wrow in zip(got[name], rows):
            for a, b in zip(grow, wrow):
                if a == b:
                    continue
                err, ok = _cell_error(a, b)
                worst = max(worst, err)
                differ += 1
                beyond += not ok
    return worst, differ, beyond


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["VF_THREADS"] = str(threads)
    # BLAS stays single-threaded so VF_THREADS alone sets the thread count
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


class Child:
    """One finished child process: exit code, wall time, peak RSS, stdout."""

    def __init__(self, argv, env, log_path, timeout):
        with open(log_path + ".out", "w") as out, \
                open(log_path + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        with open(log_path + ".out") as fh:
            lines = fh.read().splitlines()
        self.last_line = lines[-1] if lines else ""
        with open(log_path + ".err") as fh:
            self.stderr = fh.read().strip()

    def json(self):
        return json.loads(self.last_line)


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, seconds, calibrated=True):
        self.t0 = time.perf_counter()
        self.calibrated = calibrated
        self.deadline = self.t0 + seconds
        self.workload = workload
        self.command, base = WORKLOADS[workload]
        self.work = os.path.join(WORK, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = self._write_config("config.json", base, seed)
        self.ref_config = self._write_config("reference.json", base,
                                             REFERENCE_SEED)
        self.cfg = base
        self.out_dir = os.path.join(self.work, "out")
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.cells_differing = 0
        self.messages = []
        self.baseline = None
        self.reference_shape = None
        self.samples = {}
        self.last_cal = None  # median block time measured after the last child

    def _write_config(self, name, base, seed):
        path = os.path.join(self.work, name)
        with open(path, "w") as fh:
            json.dump(dict(base, seed=seed % 2 ** 64), fh, indent=1)
        return path

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def _calibration(self):
        return statistics.median(calibrate.measure(CAL_BLOCKS))

    def child(self, kind, argv, threads=1):
        """Run one child; a timed one is bracketed by calibration blocks."""
        timed = self.calibrated and kind in TIMED
        before = (self.last_cal or self._calibration()) if timed else None
        log = os.path.join(self.work, kind)
        result = Child([sys.executable] + argv, child_env(threads), log,
                       self.remaining())
        self.last_cal = self._calibration() if timed else None
        result.scale = (2.0 * calibrate.NOMINAL_BLOCK_S
                        / (before + self.last_cal) if timed else 1.0)
        self.samples.setdefault(kind, []).append(result)
        return result

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)

    def cli(self, kind, threads, config=None, traced=False):
        """Run the CLI once into a clean out_dir and check its artifacts."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = [self.command, "--config", config or self.config,
                "--out", self.out_dir]
        if traced:
            argv = [os.path.join(HERE, "traced.py"),
                    os.path.join(self.work, "spans.jsonl"),
                    "%s-%d" % (self.workload, len(self.samples.get(kind, ())))] + args
        else:
            argv = ["-c", CLI_CODE] + args
        self.attempted += 1
        run = self.child(kind, argv, threads)
        if run.code != 0:
            self.fail("%s: exit %d: %s" % (kind, run.code, run.stderr[-500:]))
            return run
        if config is not None:
            return run
        tables = read_artifacts(self.out_dir)
        if self.reference_shape is not None and \
                _shape(tables) != self.reference_shape:
            self.fail("%s: CSV files, headers or row counts differ from the "
                      "reference" % kind)
        if self.baseline is None:
            self.baseline = tables
        else:
            self._compare(kind, tables, self.baseline, "the run's first output")
        return run

    def probe(self, mode):
        """Run one probes.py child on the workload config."""
        self.attempted += 1
        run = self.child(mode, [os.path.join(HERE, "probes.py"), mode,
                                self.config])
        if run.code != 0:
            self.fail("%s probe: exit %d: %s"
                      % (mode, run.code, run.stderr[-500:]))

    def _compare(self, kind, got, want, what):
        err, differ, beyond = compare_artifacts(got, want)
        self.max_rel_err = max(self.max_rel_err, err)
        self.cells_differing += differ
        if beyond:
            self.fail("%s: %d CSV cells differ from %s beyond tolerance "
                      "(max relative error %.3g)" % (kind, beyond, what, err))

    def reference_check(self):
        """Invoke at the reference seed (also the warm-up) and compare."""
        run = self.cli("reference", 1, config=self.ref_config)
        ref_dir = os.path.join(REFERENCE, self.workload)
        if run.code == 0:
            want = read_artifacts(ref_dir)
            self.reference_shape = _shape(want)
            self._compare("reference", read_artifacts(self.out_dir), want,
                          "perfbench/reference")
        return run

    def loop(self, cycle, minimum, step):
        """Run kinds round-robin until the next one would pass the deadline."""
        estimate = {}
        i = 0
        while True:
            kind = cycle[i % len(cycle)]
            i += 1
            short = [k for k in minimum
                     if len(self.samples.get(k, ())) < minimum[k]]
            late = time.perf_counter() + estimate.get(kind, 0.0) > self.deadline
            if late and not short:
                return
            if late and kind not in short:
                continue
            if self.remaining() < 2.0 * estimate.get(kind, 0.0):
                return
            t = time.perf_counter()
            step(kind)
            estimate[kind] = max(estimate.get(kind, 0.0),
                                 time.perf_counter() - t)

    def walls(self, kind):
        return [s.wall_s for s in self.samples.get(kind, ())]

    def scaled_median(self, kind):
        """Median wall time of ``kind`` at nominal host speed (calibrate.py)."""
        return statistics.median(s.wall_s * s.scale
                                 for s in self.samples.get(kind, ()))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


def end_to_end(bench):
    wall = bench.scaled_median("t1")
    return {
        "wall_s": wall,
        "path_steps_per_s": path_steps(bench.cfg) / wall,
        "setup_s": bench.scaled_median("setup"),
        "peak_rss_mb": statistics.median(s.peak_rss_mb
                                         for s in bench.samples["t1"]),
    }


def layer_metrics(summary, wall):
    spans = summary["spans"]
    counts = summary["counts"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    main_s = s("cli.main")
    draws = counts["rng_draws"]
    m = {
        "cli.import_s": summary["import_s"],
        "cli.load_config_s": s("cli.load_config"),
        "kernels.make_preset_s": s("kernels.make_preset"),
        "kernels.eval_fbm_kernel_calls": calls("kernels.eval_fbm_kernel"),
        "kernels.eval_fbm_kernel_s": s("kernels.eval_fbm_kernel"),
        "kernels.hyp2f1_calls": calls("kernels.hyp2f1"),
        "kernels.hyp2f1_s": s("kernels.hyp2f1"),
        "kernels.coeff_calls": counts["coeff_calls"],
        "kernels.coeff_elems": counts["coeff_elems"],
        "deterministic.limit_calls": calls("deterministic.limit"),
        "deterministic.limit_s": s("deterministic.limit"),
        "deterministic.field_calls": calls("deterministic.field"),
        "deterministic.field_s": s("deterministic.field"),
        "deterministic.variance_s": s("deterministic.variance"),
        "deterministic.useful_ratio": (1.0 / calls("deterministic.field")
                                       if calls("deterministic.field") else 0.0),
        "simulate.driver_calls": calls("simulate.driver"),
        "simulate.driver_s": s("simulate.driver"),
        "simulate.rng_calls": calls("simulate.rng"),
        "simulate.rng_s": s("simulate.rng"),
        "simulate.rng_draws": draws,
        "simulate.rng_bytes": 8 * draws,
        "simulate.rng_unique_ratio": (summary["rng_unique_draws"] / draws
                                      if draws else 0.0),
        "stats.distance_calls": calls("stats.distance"),
        "stats.distance_s": s("stats.distance"),
        "stats.bootstrap_calls": calls("stats.bootstrap"),
        "stats.bootstrap_s": s("stats.bootstrap"),
        "stats.bootstrap_resamples": counts["bootstrap_resamples"],
        "stats.kolmogorov_calls": calls("stats.kolmogorov"),
        "stats.kolmogorov_s": s("stats.kolmogorov"),
        "stats.tv_calls": calls("stats.tv"),
        "stats.tv_s": s("stats.tv"),
        "stats.thm2_s": s("stats.thm2"),
        "stats.rms_s": s("stats.rms"),
        "stats.rate_fit_s": s("stats.rate_fit"),
        "trace.wall_s": wall,
        "trace.main_s": main_s,
        "trace.accounted_frac": (summary["import_s"] + main_s) / wall,
    }
    for layer, value in summary["self_s"].items():
        m[layer + ".self_s"] = value
    return m


def median_by_key(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def environment(bench, seed):
    probe = bench.child("env", [os.path.join(HERE, "probes.py"), "env"])
    if probe.code != 0:
        raise SystemExit("perfbench: cannot import volfluct from %s: %s"
                         % (SRC, probe.stderr[-500:]))
    env = probe.json()
    if os.path.realpath(env["volfluct_path"]) != \
            os.path.realpath(os.path.join(SRC, "volfluct")):
        raise SystemExit("perfbench: volfluct resolves to %s, not to %s"
                         % (env["volfluct_path"], SRC))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    env.update(git_commit=commit, workload=bench.workload, seed=seed,
               config_seed=seed % 2 ** 64, reference_seed=REFERENCE_SEED,
               VF_THREADS="1, and 2 for the traced run's t2 samples",
               BLAS_threads=1)
    return env


def measure(bench, trace):
    bench.reference_check()
    if trace:
        def step(kind):
            if kind == "chunks":
                bench.probe(kind)
            else:
                bench.cli(kind, 2 if kind == "t2" else 1,
                          traced=kind == "traced")
        bench.loop(("t1", "t2", "traced", "chunks"),
                   {"t1": 1, "t2": 1, "traced": 1, "chunks": 1}, step)
    else:
        def step(kind):
            if kind == "setup":
                bench.probe(kind)
            else:
                bench.cli(kind, 1)
        bench.loop(("t1", "setup", "t1"), {"t1": 1, "setup": SETUP_MIN}, step)


def traced_metrics(bench):
    layers = []
    restored = True
    for run in bench.samples["traced"]:
        if run.code != 0:
            continue
        summary = run.json()
        restored &= summary["restored"]
        layers.append(layer_metrics(summary, run.wall_s))
    if not restored:
        bench.fail("traced: a wrapped function was not restored")
    chunks = [r.json() for r in bench.samples["chunks"] if r.code == 0]
    if not layers or not chunks:
        return None
    m = median_by_key(layers)
    m.update(median_by_key(chunks))
    t1 = statistics.median(bench.walls("t1"))
    m["trace.overhead_s"] = statistics.median(bench.walls("traced")) - t1
    m["simulate.t2_wall_s"] = statistics.median(bench.walls("t2"))
    m["simulate.t2_speedup"] = t1 / m["simulate.t2_wall_s"]
    return m


def report(spec, metrics, notes):
    for entry in spec:
        name = entry["name"]
        print("%-32s %14.6g %-6s %s" % (name, metrics[name], entry["unit"],
                                        notes.get(name, "")))
    return {entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]} for entry in spec}


def split_line(m):
    main_s = m["trace.main_s"]
    parts = ["%s %.1f%%" % (layer, 100.0 * m[layer + ".self_s"] / main_s)
             for layer in LAYERS]
    return "self-time split of cli.main (%.3f s): %s" % (main_s, ", ".join(parts))


def update_reference(workload):
    bench = Bench(workload, REFERENCE_SEED, 0)
    run = bench.cli("reference", 1, config=bench.ref_config)
    if run.code != 0:
        raise SystemExit("perfbench: reference run failed: %s" % run.stderr)
    ref_dir = os.path.join(REFERENCE, workload)
    shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(ref_dir)
    for name in read_artifacts(bench.out_dir):
        shutil.copy(os.path.join(bench.out_dir, name), ref_dir)
    print("wrote %s" % ref_dir)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "volfluct", "cli.py")):
        print("perfbench: no volfluct sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.update_reference:
        return update_reference(args.workload)
    with open(SPEC) as fh:
        spec = json.load(fh)

    bench = Bench(args.workload, args.seed, args.seconds,
                  calibrated=not args.trace)
    env = environment(bench, args.seed)
    measure(bench, args.trace)

    print("workload %s: volfluct %s, seed %d, %d path steps per invocation"
          % (args.workload, bench.command, args.seed,
             path_steps(bench.cfg)))
    print("env " + json.dumps(env, sort_keys=True))
    for msg in bench.messages:
        print("FAILED " + msg)
    print("wall times: " + "; ".join(
        "%s %s" % (kind, " ".join("%.3f" % w for w in bench.walls(kind)))
        for kind in sorted(bench.samples)))
    failed_frac = bench.failed / bench.attempted
    checks = {"check.failed_frac": failed_frac,
              "check.artifact_max_rel_err": bench.max_rel_err}
    print("failed_frac %.6g ratio (%d of %d invocations); artifact_max_rel_err "
          "%.6g ratio (%d CSV cells differ at all)"
          % (failed_frac, bench.failed, bench.attempted, bench.max_rel_err,
             bench.cells_differing))

    if args.trace:
        metrics = traced_metrics(bench)
        if metrics is None:
            bench.fail("traced: no traced invocation or chunk probe succeeded")
            metrics = {e["name"]: 0.0 for e in spec["per_layer"]}
        metrics.update(checks)
        if metrics.get("trace.main_s"):
            print(split_line(metrics))
        print("spans: %s" % os.path.relpath(
            os.path.join(bench.work, "spans.jsonl"), ROOT))
        out = report(spec["per_layer"], metrics, {})
    else:
        metrics = end_to_end(bench)
        print("host factors (nominal / measured calibration speed): %s"
              % " ".join("%.3f" % s.scale for kind in TIMED
                         for s in bench.samples[kind]))
        notes = {}
        for name, kind, what in (("wall_s", "t1", "at VF_THREADS=1"),
                                 ("setup_s", "setup", "fresh interpreters")):
            walls = bench.walls(kind)
            notes[name] = "median of %d %s, raw %.6g s" % (
                len(walls), what, statistics.median(walls))
        high = tail(bench.walls("t1"))
        notes["wall_s"] += (", raw p%.0f %.6g s" % high if high else
                            ", no percentile above the median has %d samples "
                            "beyond it" % TAIL_BEYOND)
        out = report(spec["end_to_end"], metrics, notes)

    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
