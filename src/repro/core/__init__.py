"""The paper's contribution: DCE-marker–based missed-optimization
discovery — instrumentation, ground truth, differential testing,
primary-marker analysis, reduction, bisection, reporting."""

from .artifact import (
    ProgramRecord,
    ValidationReport,
    build_corpus,
    load_corpus,
    load_program,
    validate_corpus,
)
from .bisect import BisectionResult, bisect_marker_regression, bisect_versions
from .case_studies import CASE_STUDIES, CaseStudy, case_study, verify_case_study
from .corpus import (
    CampaignConfig,
    CampaignResult,
    analyze_one,
    config_fingerprint,
    default_specs,
    run_campaign,
)
from .differential import (
    MarkerOutcome,
    ProgramAnalysis,
    analyze_markers,
    missed_between_levels,
)
from .ground_truth import GroundTruth, compute_ground_truth
from .markers import (
    MARKER_PREFIX,
    InstrumentedProgram,
    MarkerInfo,
    instrument_program,
)
from .primary import MarkerGraph, build_marker_graph, primary_missed_markers
from .reduction import (
    MissedMarkerPredicate,
    ReductionCampaignStats,
    ReductionQueue,
    ReductionResult,
    missed_marker_predicate,
    reduce_finding,
    reduce_program,
)
from .regression_watch import WatchReport, watch
from .reports import LEDGER, BugReport, reports_for, table5_counts
from .triage import Finding, Signature, TriageResult, deduplicate, signature_of
from .value_checks import ValueCheckProgram, instrument_value_checks

__all__ = [
    "BisectionResult",
    "BugReport",
    "CASE_STUDIES",
    "Finding",
    "ProgramRecord",
    "Signature",
    "TriageResult",
    "ValidationReport",
    "build_corpus",
    "deduplicate",
    "load_corpus",
    "load_program",
    "signature_of",
    "validate_corpus",
    "CampaignConfig",
    "CampaignResult",
    "CaseStudy",
    "GroundTruth",
    "InstrumentedProgram",
    "LEDGER",
    "MARKER_PREFIX",
    "MarkerGraph",
    "MarkerInfo",
    "MarkerOutcome",
    "MissedMarkerPredicate",
    "ProgramAnalysis",
    "ReductionCampaignStats",
    "ReductionQueue",
    "ReductionResult",
    "ValueCheckProgram",
    "WatchReport",
    "analyze_markers",
    "analyze_one",
    "bisect_marker_regression",
    "bisect_versions",
    "build_marker_graph",
    "case_study",
    "compute_ground_truth",
    "config_fingerprint",
    "default_specs",
    "instrument_program",
    "instrument_value_checks",
    "missed_between_levels",
    "missed_marker_predicate",
    "primary_missed_markers",
    "reduce_finding",
    "reduce_program",
    "reports_for",
    "run_campaign",
    "table5_counts",
    "verify_case_study",
    "watch",
]
