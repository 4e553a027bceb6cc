"""Least difference in means: effect-strength statistics for two-group
studies, with decision-risk benchmarks for the alternatives.

The headline quantity is the least plausible difference in means: the
edge of the posterior credible interval nearest zero, signed like the
observed difference and exactly zero when the interval covers zero. It
reads as "the effect is at least this large, at this credibility", which
makes practical-significance calls threshold-stable and comparable
across studies. A relative version divides by the control mean.

Typical flow: build a StudyRecord from group summaries, sample its
posterior, and read the suite::

    from leastdiff import (
        GroupSummary, StudyRecord, NullRegion, Scale,
        sample_posterior, candidate_suite, designate,
    )

    study = StudyRecord(
        control=GroupSummary(mean=1335, sd=269, size=8),
        experiment=GroupSummary(mean=934, sd=232, size=8),
        alpha_dm=0.05 / 6,
    )
    draws = sample_posterior(study, k=10000, seed=1)
    region = NullRegion(-0.2, 0.2, Scale.RELATIVE)
    suite = candidate_suite(study, region, draws)
    print(suite.r_delta_l, designate(suite.r_delta_l, region))
"""
from __future__ import annotations

from .model import (
    CANDIDATES,
    RAW_MEASURES,
    RELATIVE_MEASURES,
    CandidateStatistics,
    ComparisonPair,
    CorrelationReport,
    CorrelationRow,
    CredibleBounds,
    DegenerateScaleWarning,
    Designation,
    EffectStrengthResult,
    EmptyDraws,
    EmptyInput,
    GroupSummary,
    InfeasibleSeries,
    InputError,
    InsufficientDraws,
    Measure,
    MixedSignRegime,
    NonpositiveControl,
    NonpositiveControlWarning,
    NullRegion,
    OutOfRange,
    ParseError,
    PopulationConfig,
    PosteriorDraws,
    RawSamples,
    RegimeInfeasible,
    RiskReport,
    RiskRow,
    Scale,
    SequenceTooShort,
    SignRegime,
    StudyRecord,
    ToolkitError,
    Winner,
    ZeroPooledVariance,
    ZeroVarianceWarning,
    parse_alpha,
    summarize,
)
from .posterior import (
    MIN_DRAWS,
    NONPOSITIVE_TOLERANCE,
    credible_bounds,
    require_relative,
    sample_posterior,
)
from .stats import (
    bayes_factor,
    candidate_suite,
    cohens_d,
    compare_candidate,
    decide_stronger,
    effect_strength,
    equivalence_margins,
    least_difference,
    mean_difference,
    most_difference,
    relative_mean_difference,
    sgpv,
    standard_error_dm,
    tost_p,
    welch_p,
)
from .hypothesis import consensus, designate, is_practically_significant
from .analyze import AnalysisRow, analyze_studies
from .riskbench import (
    ALPHA_GRID,
    MeasureSeries,
    ORACLE,
    PairBatch,
    default_base_config,
    draw_sample,
    expected_t_ratio,
    fairness_band,
    generate_comparison_pairs,
    generate_series,
    run_comparison_study,
    spearman_study,
)
from .tables import (
    STUDY_COLUMNS,
    StudyTableRow,
    read_studies_csv,
    write_studies_csv,
)
from .rng import child_seed, substream

__version__ = "0.1.0"
