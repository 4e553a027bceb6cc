"""Outside-in tracer: spans around the calls into each leastdiff layer.

Nothing inside the package is edited. Each module binds the names it
imports when it is imported, so a function is replaced on the module
that *calls* it (``leastdiff.riskbench.sample_posterior``, not
``leastdiff.posterior.sample_posterior``); patching the defining module
would miss every caller.

Spans are kept in memory as ``(span_id, parent_id, name, start, end,
pid)`` and written out once, after the traced call. A layer's self time
is its span's duration minus the union of its child spans' intervals.

Worker-side spans are collected from the workers themselves: ``pmap``
is replaced by a version that hands each task to ``_run_task``, which
records the task's spans in the (forked) worker and returns them with
the result. They are re-parented under the ``parallel.pmap`` span.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

# The installed tracer. pmap tasks reach it through this name because a
# forked worker holds a copy of the parent's tracer and nothing else can
# hand it over without pickling the spans recorded so far.
_active = None


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()   # deterministic event counts
        self.timers = Counter()   # CPU seconds measured at layer boundaries
        self.suite_fields = None  # non-None fields of the last candidate suite
        self._stack = []
        self._serial = 0
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self):
        self._serial += 1
        span_id = (os.getpid() << 32) | self._serial
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.monotonic()

    def _close(self, name, span_id, parent, start):
        end = time.monotonic()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, os.getpid()))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span_id, parent, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, span_id, parent, start)

    def patch(self, module, attr, name, after=None):
        """Replace module.attr by a traced version; after(tracer, result)
        runs on each return to record counts."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def patch_pmap(self, module):
        original = module.pmap

        @functools.wraps(original)
        def pmap(fn, tasks, workers=1):
            tasks = list(tasks)
            # the same worker count pmap itself settles on
            used = max(1, min(int(workers), len(tasks) or 1,
                              os.cpu_count() or 1))
            span_id, parent, start = self._open()
            try:
                out = original(
                    functools.partial(_run_task, fn, span_id), tasks, workers
                )
            finally:
                self._close("parallel.pmap", span_id, parent, start)
            self.counts["parallel.pmap.tasks"] += len(tasks)
            self.timers["parallel.capacity_s"] += (
                (time.monotonic() - start) * used
            )
            results = []
            for result, spans, counts, cpu in out:
                results.append(result)
                self.timers["parallel.worker_cpu_s"] += cpu
                if spans is None:
                    self.timers["parallel.inline_cpu_s"] += cpu
                else:
                    self.spans.extend(spans)
                    self.counts.update(counts)
                    self.counts["trace.worker_spans"] += len(spans)
            return results

        module.pmap = pmap
        self._patched.append((module, "pmap", original))

    # -- lifetime --------------------------------------------------------

    def install(self):
        global _active
        _active = self
        import leastdiff.analyze as analyze
        import leastdiff.cli as cli
        import leastdiff.posterior as posterior
        import leastdiff.riskbench as riskbench
        import leastdiff.stats as stats

        for module in (posterior, stats, riskbench):
            self.patch(module, "substream", "rng.substream")
        for module in (analyze, riskbench):
            self.patch(module, "child_seed", "rng.child_seed")
            self.patch(module, "sample_posterior",
                       "posterior.sample_posterior", _after_posterior)
            self.patch(module, "candidate_suite", "stats.candidate_suite",
                       _after_suite)
            self.patch_pmap(module)
        self.patch(stats, "_most_difference_sorted", "stats.most_difference")
        self.patch(analyze, "designate", "hypothesis.designate")
        self.patch(analyze, "_analyze_one", "analyze.row", _after_row)
        self.patch(riskbench, "_trial_candidates", "riskbench.trial",
                   _after_trial)
        # one level draw per pair-generation attempt
        self.patch(riskbench, "_sample_levels", "riskbench.pair_attempt")
        self.patch(riskbench, "expected_t_ratio", "riskbench.expected_t_ratio")
        self.patch(riskbench, "draw_sample", "riskbench.draw_sample")
        self.patch(cli, "generate_comparison_pairs", "riskbench.pairs",
                   _after_pairs)
        self.patch(cli, "run_comparison_study", "riskbench.comparison")
        self.patch(cli, "generate_series", "riskbench.series")
        self.patch(cli, "spearman_study", "riskbench.spearman")
        self.patch(cli, "analyze_studies", "analyze.analyze_studies")
        self.patch(cli, "read_studies_csv", "tables.read_studies_csv",
                   _after_read)
        self.patch(cli, "write_csv", "tables.write_csv")
        self.patch(cli, "write_json", "tables.write_json")

    def uninstall(self):
        global _active
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        _active = None

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _run_task(fn, pmap_span, task):
    """One pmap task; in a worker process it returns the task's spans."""
    tracer = _active
    cpu = time.process_time()
    if os.getpid() == tracer.pid:
        result = fn(task)
        return result, None, None, time.process_time() - cpu
    tracer.spans, tracer.counts = [], Counter()
    tracer._stack = [pmap_span]
    result = fn(task)
    spans, counts = tracer.spans, tracer.counts
    tracer.spans, tracer.counts = [], Counter()
    return result, spans, counts, time.process_time() - cpu


# -- count hooks --------------------------------------------------------


def _after_posterior(tracer, draws):
    tracer.counts["posterior.draws"] += draws.k
    if draws.rel_diff is None:
        tracer.counts["posterior.rel_withheld"] += 1


def _after_suite(tracer, suite):
    from leastdiff.model import CANDIDATES

    fields = sum(getattr(suite, name) is not None for name in CANDIDATES)
    tracer.counts["stats.candidates_computed"] += fields
    tracer.suite_fields = fields


def _after_trial(tracer, values):
    # the trial keeps only the requested candidates of its suite
    if tracer.suite_fields is not None:
        tracer.counts["stats.candidates_used"] += len(values)
    tracer.suite_fields = None


def _after_row(tracer, row):
    # analyze reports every field of the suite
    tracer.counts["stats.candidates_used"] += tracer.suite_fields or 0
    tracer.suite_fields = None


def _after_pairs(tracer, batch):
    tracer.counts["riskbench.regenerations"] += batch.regenerations
    tracer.counts["riskbench.pairs_accepted"] += (
        len(batch) * (batch.regenerations + 1)
    )


def _after_read(tracer, rows):
    tracer.counts["tables.rows_read"] += len(rows)


# -- aggregation --------------------------------------------------------


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_totals(spans):
    """Per span name: [calls, inclusive seconds, self seconds], plus the
    part of each span name's time spent outside ``parallel.pmap``."""
    children = defaultdict(list)
    for span_id, parent, name, start, end, pid in spans:
        children[parent].append((name, start, end))
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    outside_pmap = Counter()
    for span_id, parent, name, start, end, pid in spans:
        kids = children.get(span_id, ())
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - _covered(
            [(lo, hi) for _, lo, hi in kids], start, end
        )
        outside_pmap[name] += end - start - _covered(
            [(lo, hi) for kid, lo, hi in kids if kid == "parallel.pmap"],
            start, end,
        )
    return totals, outside_pmap
