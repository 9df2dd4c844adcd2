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
