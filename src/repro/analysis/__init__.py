"""Measurement and reporting helpers shared by the benches and examples."""

from repro.analysis.tables import format_markdown_table, format_table
from repro.analysis.conformance import (
    ConformanceSummary,
    algorithm_table,
    family_table,
    summarize_conformance,
)
from repro.analysis.sweep import (
    SweepRecord,
    corpus_default,
    corpus_with_phi,
    fit_ratio,
    sweep_elect,
)

__all__ = [
    "format_table",
    "format_markdown_table",
    "ConformanceSummary",
    "summarize_conformance",
    "family_table",
    "algorithm_table",
    "SweepRecord",
    "corpus_default",
    "corpus_with_phi",
    "sweep_elect",
    "fit_ratio",
]
