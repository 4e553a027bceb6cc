"""The benchmark's workloads: the inputs each one builds and why it exists.

Each workload is one ``leastdiff`` command line. The benchmark passes it
only what it derives from ``--seed``: the command's own ``--seed`` and,
for ``analyze-table``, a study table generated from the seed.

Why these three:

* ``analyze-table`` is the path the paper's users run: one study table
  through ``analyze`` at the default relative scale and 10,000 draws.
  The bundled 14-row tables finish in about 10 ms, too little to time,
  so the table is generated. Time goes to posterior sampling at large K,
  the full candidate suite (every candidate is reported) and CSV/JSON
  I/O. It never touches pair generation and runs ``pmap`` with 1 worker.
* ``risk-gated`` is the shape of acceptance gate 6: ``risk`` with one
  independent measure (``mu_dm``) and one requested candidate
  (``delta_l``). It exercises pair generation and its t-ratio probes,
  substream derivation and small-K sampling, and the candidate suite
  computes 14 statistics of which 1 is used. Work that skips unused
  candidates shows here.
* ``correlate-ladders`` sweeps every raw-scale strength ladder with all
  candidates on 2 workers. It is the only workload that fans out over
  ``pmap`` processes and runs the serial bootstrap and rank-correlation
  stage. Every computed candidate is used, so lazy candidate evaluation
  should show no change here.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass

# analyze-table: rows in the generated table
ANALYZE_ROWS = 2000
# risk-gated: comparison pairs x samples per pair (each sample runs 2 sides)
RISK_PAIRS, RISK_SAMPLES = 100, 50
# correlate-ladders: raw ladders x rungs x samples per rung (CLI defaults)
LADDERS, RUNGS, LADDER_SAMPLES = 4, 10, 200

STUDY_COLUMNS = (
    "id", "label_control", "xbar", "sx", "m", "label_experiment",
    "ybar", "sy", "n", "units", "alpha", "source",
)

# Generated table parameter ranges. The control side is kept safely
# positive: with m >= 8 and cv <= 0.25 the control-mean posterior sits at
# least 11 scale units above zero, so the chance that more than 0.1% of
# 10,000 draws fall at or below zero (which makes the whole relative run
# exit 3) is negligible for every row. The experiment side can be noisier.
_CONTROL_MEAN = (0.0, 3.0)       # log10 of the control mean: 1 to 1000
_CONTROL_CV = (0.05, 0.25)       # control sd / control mean
_CONTROL_SIZE = (8, 40)
_EFFECT = (-0.6, 0.4)            # relative change of the experiment mean
_EXPERIMENT_CV = (0.05, 0.5)
_EXPERIMENT_SIZE = (6, 40)
_ALPHAS = ("0.05", "0.01", "0.1") + tuple(f"0.05/{k}" for k in range(2, 11))
_UNITS = ("mg/dL", "%", "um^2")


def write_study_table(path, seed: int, rows: int = ANALYZE_ROWS) -> None:
    """Write a study CSV that depends only on the seed."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STUDY_COLUMNS)
        for i in range(1, rows + 1):
            xbar = 10.0 ** rng.uniform(*_CONTROL_MEAN)
            sx = xbar * rng.uniform(*_CONTROL_CV)
            m = rng.randint(*_CONTROL_SIZE)
            ybar = xbar * (1.0 + rng.uniform(*_EFFECT))
            sy = ybar * rng.uniform(*_EXPERIMENT_CV)
            n = rng.randint(*_EXPERIMENT_SIZE)
            writer.writerow([
                i, f"control {i}", f"{xbar:.6g}", f"{sx:.6g}", m,
                f"treated {i}", f"{ybar:.6g}", f"{sy:.6g}", n,
                rng.choice(_UNITS), rng.choice(_ALPHAS),
                f"generated, seed {seed}",
            ])


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    datasets: int      # datasets given candidate statistics per call
    report_rows: int   # data rows expected in the CSV report
    command: tuple     # leastdiff argv before the common flags

    def argv(self, seed: int, workdir, out_csv, out_json) -> list:
        """Build the inputs for one call and return the CLI argv.

        Generating the study table is part of set-up and is timed there.
        """
        command = list(self.command)
        if self.name == "analyze-table":
            table = f"{workdir}/studies.csv"
            write_study_table(table, seed)
            command.append(table)
        return command + [
            "--seed", str(seed), "--workers", str(self.workers),
            "--out-csv", str(out_csv), "--out-json", str(out_json),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-table", 1, ANALYZE_ROWS, ANALYZE_ROWS,
            ("analyze", "--draws", "10000"),
        ),
        Workload(
            "risk-gated", 1, RISK_PAIRS * RISK_SAMPLES * 2, 1,
            ("risk", "--independent", "mu_dm", "--candidates", "delta_l",
             "--pairs", str(RISK_PAIRS), "--samples", str(RISK_SAMPLES),
             "--draws", "2000"),
        ),
        Workload(
            "correlate-ladders", 2, LADDERS * RUNGS * LADDER_SAMPLES,
            LADDERS * 14,  # one row per candidate and ladder
            ("correlate", "--steps", str(RUNGS),
             "--samples", str(LADDER_SAMPLES), "--draws", "2000"),
        ),
    )
}
