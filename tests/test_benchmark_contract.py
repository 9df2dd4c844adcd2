"""The names the benchmark harness in perfbench/ needs from the package.

perfbench/traced.py patches layer entry points by module attribute and
perfbench/probes.py calls the deterministic set-up and the whole-batch
engines.  These tests read that harness without editing it, so a change
that drops or renames one of those names fails here, not in a later
benchmark run.
"""

import json
import math
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import traced
    yield probes, traced
    for name in ("probes", "traced"):
        sys.modules.pop(name, None)


def test_tracer_patches_and_restores_every_name(harness):
    _, traced = harness
    tracer = traced.Tracer("contract")
    try:
        tracer.install()  # getattr on each patched name: a missing one raises
    finally:
        restored = tracer.restore()
    assert restored
    assert tracer._patched  # the tracer did wrap names


@pytest.mark.parametrize("doc", [
    {"preset": "trig"},
    {"preset": "fbm-trig", "H": 0.7},
])
def test_probes_run_on_a_tiny_config(harness, tmp_path, doc):
    probes, _ = harness
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, N=16, M=200, epsilons=[0.1],
                                   out_dir=str(tmp_path / "o"))))
    setup = probes.setup(str(cfg))
    chunks = probes.chunks(str(cfg))
    assert math.isfinite(setup["var_T"]) and setup["var_T"] > 0.0
    assert chunks and all(math.isfinite(v) and v >= 0.0 for v in chunks.values())


def test_tracer_runs_a_thm2_invocation(harness, tmp_path, monkeypatch):
    # what --trace 1 does: one CLI call under every wrapper, each chunk
    # drawing its increments through the patched RNG entry point, one call
    # per row block (two per full chunk at N = 64)
    _, traced = harness
    from volfluct import cli, simulate
    monkeypatch.setenv("VF_THREADS", "1")
    N, M = 64, 2 * simulate._CHUNK_ROWS + 37
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "multiplicative", "N": N, "M": M,
                               "epsilons": [0.1], "test_functions": ["cos"],
                               "out_dir": str(tmp_path / "o")}))
    tracer = traced.Tracer("contract")
    try:
        tracer.install()
        rc = tracer.call("cli.main", cli.main, ["thm2", "--config", str(cfg)])
    finally:
        restored = tracer.restore()
    assert rc == 0
    assert restored
    blocks = sum(len(simulate._row_blocks(N, m0, m1)) for m0, m1 in simulate._chunks(M))
    assert blocks == 5
    assert tracer.summary()["spans"]["simulate.rng"]["calls"] == blocks
    assert tracer.counts["rng_draws"] == M * N


def test_tracer_counts_fbm_coefficient_calls(harness, tmp_path, monkeypatch):
    # the engines evaluate an fBm preset through the six callables the
    # tracer wraps, so kernels.coeff_calls measures fBm coefficient work too
    _, traced = harness
    from volfluct import cli
    monkeypatch.setenv("VF_THREADS", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "fbm-trig", "H": 0.7, "N": 16, "M": 200,
                               "epsilons": [0.1], "test_functions": ["cos"],
                               "out_dir": str(tmp_path / "o")}))
    tracer = traced.Tracer("contract")
    try:
        tracer.install()
        rc = tracer.call("cli.main", cli.main, ["thm2", "--config", str(cfg)])
    finally:
        restored = tracer.restore()
    assert rc == 0
    assert restored
    assert tracer.counts["coeff_calls"] > 0
