"""leastdiff benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload analyze-table --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports ``leastdiff`` from
``src/`` and needs no install. Workloads are described in workloads.py.

Every call runs in a fresh interpreter (child.py) through
``leastdiff.cli.main``. A run first makes one untimed reference call at
seed 0, whose CSV and JSON reports, and those of the bundled cholesterol
(relative) and plaque-size (raw) analyses, must match the SHA-256 hashes
in expected.json. It then makes timed calls at ``--seed`` for
``--seconds`` seconds. Their reports must all be identical (and match
expected.json if the seed is recorded there), with the expected row count.
A call that exits nonzero or fails a check counts toward ``failed``.

With ``--trace 0`` the run prints the end-to-end metrics, each the median
over its timed calls. With ``--trace 1`` it alternates untraced and
traced calls: the traced ones wrap each layer from outside (tracer.py)
and give the per-layer metrics (medians of times; counts must be equal
in every traced call, or the run is marked incorrect), and the untraced
ones give ``trace.overhead_s``. The spans of the last traced call are
kept in bench/.work/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those listed in BENCHMARK.json. The lines before it give every metric
with its unit, quartiles and call count, host facts and resource use.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"
REFERENCE_SEED = 0
MIN_CALLS = 3           # timed calls per run, at least
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# Compared across traced calls of one seed: they must repeat exactly.
COUNT_METRICS = (
    "rng.substream.calls", "rng.child_seed.calls",
    "posterior.sample_posterior.calls", "stats.candidate_suite.calls",
    "riskbench.expected_t_ratio.calls", "riskbench.draw_sample.calls",
    "parallel.pmap.calls", "hypothesis.designate.calls",
    "posterior.draws", "posterior.rel_withheld", "riskbench.pair_attempts",
    "riskbench.regenerations", "parallel.pmap.tasks", "tables.rows_read",
    "trace.worker_spans", "stats.candidates_used_ratio",
    "riskbench.pair_accept_ratio",
)


def _child(workload, seed, workdir, deadline, trace=False, reference=False):
    """Run one call in a fresh interpreter; return its result or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, str(BENCH / "child.py"), workload, str(seed),
        repr(time.monotonic()), str(workdir), str(int(trace)),
        str(int(reference)),
    ]
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the call's own pmap workers share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
    result_path = workdir / "result.json"
    if code != 0 or not result_path.exists():
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        why = "timed out" if code is None else f"exit {code}"
        print(f"call failed ({why}):\n{tail}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def _problems(result, workload, want):
    """Why a call's result is wrong, or [] when it is right.

    ``want`` maps report names to the hashes they must have: the
    workload's own reports, and for a reference call the bundled ones.
    """
    if result is None:
        return ["no result"]
    if result["exit"] != 0:
        return [f"leastdiff exited {result['exit']}"]
    found = []
    if result["csv_rows"] != workload.report_rows:
        found.append(
            f"{result['csv_rows']} report rows, want {workload.report_rows}"
        )
    got = {workload.name: result, **result.get("bundled", {})}
    for name, hashes in want.items():
        for kind in ("csv", "json"):
            if got[name].get(kind) != hashes[kind]:
                found.append(f"{name} {kind} report hash differs from "
                             f"{hashes[kind][:12]}")
    return found


class Run:
    """The calls of one benchmark run and the checks they failed."""

    def __init__(self, workload, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, seed, want, traced=False, reference=False):
        """Make one call; return its result if it passed every check."""
        self.attempted += 1
        workdir = Path(tempfile.mkdtemp(dir=self.run_dir))
        result = _child(self.workload.name, seed, workdir, self.deadline,
                        traced, reference)
        problems = _problems(result, self.workload, want)
        if problems:
            self.failed += 1
            self.failures += [f"call {self.attempted}: {p}" for p in problems]
            return None
        if traced:
            shutil.copyfile(workdir / "spans.jsonl", self.spans_path)
        return result

    @property
    def spans_path(self):
        return WORK / f"spans-{self.workload.name}.jsonl"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _line(name, values, unit, note=""):
    q1, q2, q3 = _quartiles(values)
    print(f"  {name:32s} {q2:14.6g} {unit:6s} "
          f"(p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)}){note}")


def _end_to_end(results, workload):
    """Per-call values of each end-to-end metric, with units."""
    cpu = [r["cpu_self_s"] + r["cpu_children_s"] for r in results]
    return {
        "setup_s": ("s", [r["setup_s"] for r in results]),
        "wall_s": ("s", [r["wall_s"] for r in results]),
        "datasets_per_s": (
            "1/s", [workload.datasets / r["wall_s"] for r in results]
        ),
        "cpu_s": ("s", cpu),
        "core_util": ("ratio", [
            c / (r["wall_s"] * workload.workers) for c, r in zip(cpu, results)
        ]),
        # the larger of the calling process and its largest worker
        "peak_rss_mb": ("MB", [
            max(r["maxrss_self_mb"], r["maxrss_children_mb"]) for r in results
        ]),
        "parent_rss_mb": ("MB", [r["maxrss_self_mb"] for r in results]),
        "worker_rss_mb": ("MB", [r["maxrss_children_mb"] for r in results]),
    }


def _per_layer(traced, plain):
    """Per-call values of each per-layer metric, with units."""
    out = {
        name: (_layer_unit(name), [r["layers"][name] for r in traced])
        for name in traced[0]["layers"]
    }
    out["trace.overhead_s"] = ("s", [
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)
    ])
    return out


def measure(workload, seed, seconds, trace, run_dir):
    """Make a run's calls; return it with its untraced and traced results."""
    reports = json.loads(EXPECTED.read_text())["reports"]
    run = Run(workload, run_dir)
    # untimed reference call: reports must match the recorded hashes
    reference = run.call(
        REFERENCE_SEED, {name: reports[name] for name in (workload.name,
                         "cholesterol-relative", "plaque-size-raw")},
        reference=True,
    )
    want = {workload.name: reports[workload.name]} \
        if seed == REFERENCE_SEED else {}
    plain, traced = [], []
    start = time.monotonic()
    while time.monotonic() < run.deadline:
        done = (len(plain) >= 2 and len(traced) >= 2) if trace \
            else len(plain) >= MIN_CALLS
        if done and time.monotonic() - start >= seconds \
                or run.failed >= MIN_CALLS:
            break
        with_trace = trace and len(traced) < len(plain)
        result = run.call(seed, want, traced=with_trace)
        if result is not None:
            # every later call must give the same reports
            want = {workload.name: result}
            (traced if with_trace else plain).append(result)
    else:
        run.failures.append(
            f"run did not finish within {RUN_DEADLINE_S:.0f} s"
        )
    if len(traced) >= 2:
        for name in COUNT_METRICS:
            values = {r["layers"][name] for r in traced}
            if len(values) > 1:
                run.failures.append(f"count {name} differs between traced "
                                    f"calls of one seed: {sorted(values)}")
    return run, reference, plain, traced


def report(run, reference, plain, traced, seed, seconds, trace, spec):
    """Print every metric; return the result object for the last line."""
    workload = run.workload
    print(f"leastdiff benchmark: workload {workload.name}, seed {seed}, "
          f"{seconds} s, trace {int(trace)}")
    if reference is not None:
        print("host: " + json.dumps(reference["host"]))
    print(f"calls: {len(plain)} untraced, {len(traced)} traced, "
          f"1 untimed reference call at seed {REFERENCE_SEED}")

    wanted = {m["name"]: m["unit"] for m in spec}
    metrics = {}
    if plain:
        print("end to end (median of untraced calls):")
        for name, (unit, values) in _end_to_end(plain, workload).items():
            _line(name, values, unit)
            if not trace and name in wanted:
                metrics[name] = statistics.median(values)
    print(f"  {'failed_frac':32s} {run.failed / run.attempted:14.6g} ratio  "
          f"({run.failed} of {run.attempted} calls)")
    if traced and plain:
        print("per layer (median of traced calls):")
        for name, (unit, values) in _per_layer(traced, plain).items():
            note = "" if name in wanted else "  [not in BENCHMARK.json]"
            if name in COUNT_METRICS:
                print(f"  {name:32s} {values[0]:14.6g} {unit}{note}")
                value = values[0]
            else:
                _line(name, values, unit, note)
                value = statistics.median(values)
            if trace and name in wanted:
                metrics[name] = value
        if traced[-1]["layers"]["trace.worker_spans"]:
            print("worker-side layers: collected from the pmap worker "
                  "processes")
        else:
            print("worker-side layers: none; every pmap task ran in the "
                  "calling process")
        print(f"spans of the last traced call: "
              f"{run.spans_path.relative_to(ROOT)}")
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"resources: RUSAGE_SELF cpu {own.ru_utime + own.ru_stime:.3f} s, "
          f"maxrss {own.ru_maxrss / 1024:.1f} MB; RUSAGE_CHILDREN cpu "
          f"{kids.ru_utime + kids.ru_stime:.3f} s, "
          f"maxrss {kids.ru_maxrss / 1024:.1f} MB")

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        run.failures.append(f"metrics not measured: {', '.join(missing)}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items() if name in metrics
        },
    }


def _layer_unit(name):
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "util")):
        return "ratio"
    return "count"


def _sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leastdiff" / "__init__.py").is_file():
        print(f"error: no leastdiff package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGTERM, _sigterm)
    # every call then imports from bytecode, as from an installed package,
    # whether or not the environment lets Python write it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        calls = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = report(*calls, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
