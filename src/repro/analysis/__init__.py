"""Analysis pipeline: from stored runs to the paper's figures.

Mirrors the paper's analysis phase (Figure 2): results are imported into a
database (:mod:`repro.analysis.database`), reduced once to discomfort
observations (:class:`Observations`) and censoring-aware CDFs
(:mod:`repro.analysis.cdf`), and reported as the published tables and
figures (:mod:`repro.analysis.report`), plus the skill-factor t-tests
(:mod:`repro.analysis.factors`) and the ramp-vs-step time-dynamics analysis
(:mod:`repro.analysis.dynamics`).  :mod:`repro.analysis.compare` checks
regenerated numbers against the published ones.
"""

from repro.analysis.bootstrap import (
    BootstrapInterval,
    bootstrap_c_percentile,
    bootstrap_f_d,
)
from repro.analysis.cdf import (
    Observations,
    aggregate_cdf,
    observations_from_runs,
    per_cell_cdf,
    split_blank_runs,
)
from repro.analysis.compare import (
    CellComparison,
    compare_cells,
    comparison_table,
    ordering_matches,
    relative_error,
)
from repro.analysis.database import ResultDatabase
from repro.analysis.dynamics import FrogInPotResult, ramp_vs_step
from repro.analysis.factors import SkillDifference, skill_level_differences, skill_table
from repro.analysis.traces import (
    SlowdownSummary,
    slowdown_at_discomfort,
    trace_statistics,
)
from repro.analysis.shapes import ShapeSummary, shape_table, summarize_shapes
from repro.analysis.validate import (
    ValidationFinding,
    ValidationReport,
    validate_runs,
)
from repro.analysis.survival import (
    KaplanMeierCurve,
    kaplan_meier,
    km_discomfort_probability,
    km_percentile,
)
from repro.analysis.fullreport import full_report
from repro.analysis.plots import render_cdf, render_mini_cdf, sparkline
from repro.analysis.questions import QuestionReport, answer_questions
from repro.analysis.report import (
    BreakdownRow,
    CellMetrics,
    breakdown_table,
    cell_metrics,
    metric_tables,
    sensitivity_grid,
)

__all__ = [
    "BootstrapInterval",
    "BreakdownRow",
    "CellComparison",
    "CellMetrics",
    "FrogInPotResult",
    "KaplanMeierCurve",
    "Observations",
    "QuestionReport",
    "ResultDatabase",
    "SkillDifference",
    "ShapeSummary",
    "SlowdownSummary",
    "ValidationFinding",
    "ValidationReport",
    "aggregate_cdf",
    "bootstrap_c_percentile",
    "bootstrap_f_d",
    "answer_questions",
    "breakdown_table",
    "compare_cells",
    "comparison_table",
    "full_report",
    "cell_metrics",
    "kaplan_meier",
    "km_discomfort_probability",
    "km_percentile",
    "metric_tables",
    "observations_from_runs",
    "ordering_matches",
    "per_cell_cdf",
    "relative_error",
    "ramp_vs_step",
    "render_cdf",
    "render_mini_cdf",
    "sensitivity_grid",
    "shape_table",
    "summarize_shapes",
    "validate_runs",
    "skill_level_differences",
    "skill_table",
    "slowdown_at_discomfort",
    "sparkline",
    "trace_statistics",
    "split_blank_runs",
]
