"""Analysis layer: sweeps, normalisation, MMU curves, table rendering."""

from .compare import (
    ArtefactError,
    CompareResult,
    MetricDelta,
    compare_artefacts,
    compare_metrics,
    extract_metrics,
    metric_direction,
)
from .mmu import (
    max_pause,
    mmu,
    mmu_curve,
    overall_utilisation,
)
from .series import (
    GAP,
    best_value,
    geomean_across,
    geometric_mean,
    improvement_percent,
    relative_to_best,
)
from .slo import (
    frontier_series,
    render_frontier,
    render_frontier_comparison,
    render_search_results,
)
from .sweep import MAX_RATIO, PAPER_POINTS, SweepResult, heap_multipliers, sweep
from .tables import format_bytes, render_mmu, render_series, render_table

__all__ = [
    "ArtefactError",
    "CompareResult",
    "GAP",
    "MAX_RATIO",
    "MetricDelta",
    "PAPER_POINTS",
    "SweepResult",
    "best_value",
    "compare_artefacts",
    "compare_metrics",
    "extract_metrics",
    "metric_direction",
    "format_bytes",
    "frontier_series",
    "geomean_across",
    "geometric_mean",
    "heap_multipliers",
    "improvement_percent",
    "max_pause",
    "mmu",
    "mmu_curve",
    "overall_utilisation",
    "relative_to_best",
    "render_frontier",
    "render_frontier_comparison",
    "render_mmu",
    "render_search_results",
    "render_series",
    "render_table",
    "sweep",
]
