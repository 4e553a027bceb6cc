"""One workload call in a fresh interpreter; started by run.py.

    python3 child.py WORKLOAD SEED SPAWNED_AT WORKDIR TRACE REFERENCE

Set-up runs from interpreter start (SPAWNED_AT, the parent's monotonic
clock when it started this process) through importing leastdiff and
building the inputs. The workload call is ``leastdiff.cli.main`` with
the workload's argv. Results go to WORKDIR/result.json: times, resource
use, report hashes and, when TRACE is 1, the per-layer metrics. With
REFERENCE 1 the bundled tables are analysed too, after the timed call,
so their reports can be checked against the recorded hashes.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def _rusage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _hashes(code, out_csv, out_json):
    if code != 0:
        return {"exit": code, "csv": None, "json": None}
    return {"exit": code, "csv": _sha256(out_csv), "json": _sha256(out_json)}


def _bundled(cli, argv, workdir, name):
    out_csv = os.path.join(workdir, f"{name}.csv")
    out_json = os.path.join(workdir, f"{name}.json")
    code = cli.main(argv + ["--out-csv", out_csv, "--out-json", out_json])
    return _hashes(code, out_csv, out_json)


def _layer_metrics(tracer, parent_cpu_s):
    from tracer import layer_totals

    totals, outside_pmap = layer_totals(tracer.spans)
    counts, timers = tracer.counts, tracer.timers

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_s(name):
        return totals[name][2] if name in totals else 0.0

    def us_per_call(name):
        n = calls(name)
        return totals[name][1] / n * 1e6 if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("rng.substream", "rng.child_seed",
                 "posterior.sample_posterior", "stats.candidate_suite",
                 "riskbench.expected_t_ratio", "riskbench.draw_sample",
                 "parallel.pmap", "hypothesis.designate"):
        out[f"{name}.calls"] = calls(name)
    for name in ("posterior.sample_posterior", "stats.candidate_suite",
                 "stats.most_difference", "riskbench.pairs",
                 "tables.read_studies_csv", "tables.write_csv",
                 "tables.write_json", "analyze.analyze_studies", "cli.main"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("rng.substream", "rng.child_seed",
                 "posterior.sample_posterior", "stats.candidate_suite",
                 "stats.most_difference", "riskbench.expected_t_ratio",
                 "riskbench.draw_sample"):
        out[f"{name}.us_per_call"] = us_per_call(name)
    out["riskbench.pair_attempts"] = calls("riskbench.pair_attempt")
    for name in ("posterior.draws", "posterior.rel_withheld",
                 "riskbench.regenerations",
                 "parallel.pmap.tasks", "tables.rows_read",
                 "trace.worker_spans"):
        out[name] = counts[name]
    out["stats.candidates_used_ratio"] = ratio(
        counts["stats.candidates_used"], counts["stats.candidates_computed"]
    )
    out["riskbench.pair_accept_ratio"] = ratio(
        counts["riskbench.pairs_accepted"], out["riskbench.pair_attempts"]
    )
    out["riskbench.spearman.serial_s"] = outside_pmap["riskbench.spearman"]
    pmap_wall = totals["parallel.pmap"][1] if "parallel.pmap" in totals else 0.0
    out["parallel.pmap.wall_s"] = pmap_wall
    out["parallel.worker_cpu_s"] = timers["parallel.worker_cpu_s"]
    out["parallel.parent_cpu_s"] = parent_cpu_s - timers["parallel.inline_cpu_s"]
    out["parallel.util"] = ratio(
        timers["parallel.worker_cpu_s"], timers["parallel.capacity_s"]
    )
    return out


def main(argv):
    name, seed, spawned_at, workdir, trace, reference = argv
    seed, spawned_at = int(seed), float(spawned_at)
    trace, reference = trace == "1", reference == "1"

    import leastdiff.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_csv = os.path.join(workdir, "report.csv")
    out_json = os.path.join(workdir, "report.json")
    call_argv = workload.argv(seed, workdir, out_csv, out_json)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.monotonic()
    before = _rusage()
    if tracer is None:
        code = cli.main(call_argv)
    else:
        code = tracer.call("cli.main", cli.main, call_argv)
    wall_s = time.monotonic() - start
    after = _rusage()

    self_cpu = _cpu(after[0]) - _cpu(before[0])
    children_cpu = _cpu(after[1]) - _cpu(before[1])
    result = {
        **_hashes(code, out_csv, out_json),
        "setup_s": start - spawned_at,
        "wall_s": wall_s,
        "cpu_self_s": self_cpu,
        "cpu_children_s": children_cpu,
        # ru_maxrss is in KiB on Linux
        "maxrss_self_mb": after[0].ru_maxrss / 1024.0,
        "maxrss_children_mb": after[1].ru_maxrss / 1024.0,
        "csv_rows": 0,
    }
    if code == 0:
        with open(out_csv, encoding="utf-8") as handle:
            result["csv_rows"] = sum(1 for _ in handle) - 1

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = _layer_metrics(tracer, self_cpu)
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))

    if reference:
        import numpy
        import scipy
        from leastdiff import datasets

        result["host"] = {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        result["bundled"] = {
            "cholesterol-relative": _bundled(
                cli, ["analyze", datasets.cholesterol_path()], workdir,
                "cholesterol-relative"),
            "plaque-size-raw": _bundled(
                cli, ["analyze", datasets.plaque_size_path(), "--scale", "raw"],
                workdir, "plaque-size-raw"),
        }

    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
