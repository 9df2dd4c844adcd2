"""Run one volfluct CLI invocation with spans around each layer's public calls.

    python3 perfbench/traced.py SPANS.jsonl RUN_ID <volfluct CLI arguments>

The wrappers are installed from outside the package, at the module
attributes each caller looks up at call time, so nothing under src/
changes.  Spans (id, parent, name, start, end, thread, run) stay in
memory and are written to SPANS.jsonl when the run ends; the last line
of stdout is a JSON summary that run.py turns into per-layer metrics.
Every wrapped attribute is restored before the summary is printed, and
the summary says whether each restore took.

Run it with VF_THREADS=1: spans nest per thread, and layer self times
are only additive when one thread does the work.
"""

import dataclasses
import inspect
import itertools
import json
import sys
import threading
import time

_COEFF_FIELDS = ("b", "sigma", "db", "dsigma", "d2b", "d2sigma")
LAYERS = ("cli", "kernels", "deterministic", "simulate", "stats")


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, start, end, thread)
        self.counts = {"coeff_calls": 0, "coeff_elems": 0, "rng_draws": 0,
                       "bootstrap_resamples": 0}
        self.rng_keys = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end,
                               threading.get_ident()))

    def _patch(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            out = self.call(name, original, *args, **kwargs)
            return out if after is None else after(out)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _count_coefficient(self, fn):
        def counted(t, s, x):
            out = fn(t, s, x)
            self.counts["coeff_calls"] += 1
            self.counts["coeff_elems"] += int(getattr(out, "size", 1))
            return out
        return counted

    def _wrap_coefficients(self, cs):
        return dataclasses.replace(
            cs, **{f: self._count_coefficient(getattr(cs, f))
                   for f in _COEFF_FIELDS})

    def _note_rng(self, seed, grid, m0, m1):
        self.counts["rng_draws"] += (m1 - m0) * grid.N
        self.rng_keys.add((int(seed), grid.N, m0, m1))

    def install(self):
        from volfluct import cli, kernels, simulate, stats

        n_boot_default = inspect.signature(
            stats.bootstrap_se).parameters["n_boot"].default

        def note_bootstrap(a, b, stat, n_boot=n_boot_default, seed=0):
            self.counts["bootstrap_resamples"] += n_boot

        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "make_preset", "kernels.make_preset",
                    after=self._wrap_coefficients)
        self._patch(kernels, "eval_fbm_kernel", "kernels.eval_fbm_kernel")
        self._patch(kernels, "hyp2f1", "kernels.hyp2f1")
        for owner in (cli, simulate):
            self._patch(owner, "solve_deterministic_limit",
                        "deterministic.limit")
            self._patch(owner, "solve_derivative_field",
                        "deterministic.field")
        self._patch(simulate, "_increment_rows", "simulate.rng",
                    before=self._note_rng)
        self._patch(cli, "variance_of_Y", "deterministic.variance")
        self._patch(cli, "coupled_terminal_samples", "simulate.driver")
        self._patch(cli, "distance_report", "stats.distance")
        self._patch(stats, "bootstrap_se", "stats.bootstrap",
                    before=note_bootstrap)
        self._patch(stats, "kolmogorov_distance", "stats.kolmogorov")
        self._patch(stats, "tv_histogram", "stats.tv")
        self._patch(cli, "thm2_report", "stats.thm2")
        self._patch(cli, "rms_with_se", "stats.rms")
        self._patch(cli, "rate_fit", "stats.rate_fit")

    def restore(self):
        """Put every original back; True when each attribute is the original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patched)

    def summary(self):
        child_time = {}
        for sid, parent, name, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        by_name = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for sid, parent, name, start, end, _ in self.spans:
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            self_s[name.split(".", 1)[0]] += end - start - child_time.get(sid, 0.0)
        return {"spans": by_name, "self_s": self_s, "counts": self.counts,
                "rng_unique_draws": sum((m1 - m0) * n for _, n, m0, m1
                                        in self.rng_keys)}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "thread": thread}) + "\n")


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    from volfluct import cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(run_id)
    tracer.install()
    try:
        rc = tracer.call("cli.main", cli.main, cli_args)
    finally:
        restored = tracer.restore()
    tracer.write_jsonl(spans_path)
    doc = tracer.summary()
    doc.update(exit_code=rc, restored=restored, import_s=import_s)
    print(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
