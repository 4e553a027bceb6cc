"""The benchmark's tracer must find every name it patches.

``bench/tracer.py`` wraps functions by name on the modules that call
them; a refactor that renames one, or stops calling it through its
module global, would break ``bench/run.py --trace 1`` or silently zero
its counts. The tracer is loaded from its file and only used, never
edited.
"""
import importlib.util
from pathlib import Path

from conftest import run_cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_a_risk_run():
    import leastdiff.riskbench as riskbench

    original = riskbench._trial_candidates
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        code, _ = run_cli(["risk", "--pairs", "50", "--samples", "1",
                           "--draws", "1000", "--candidates", "delta_l"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert riskbench._trial_candidates is original
    calls = {span[2] for span in tracer.spans}
    assert {
        "riskbench.pairs", "riskbench.comparison", "riskbench.pair_attempt",
        "riskbench.expected_t_ratio", "riskbench.trial",
        "riskbench.draw_sample", "posterior.sample_posterior",
        "stats.candidate_suite", "rng.substream", "rng.child_seed",
        "parallel.pmap",
    } <= calls
    assert sum(span[2] == "riskbench.trial" for span in tracer.spans) == 100
    assert tracer.counts["riskbench.pairs_accepted"] >= 50
