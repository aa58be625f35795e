"""Morsel-driven parallel execution: shared worker pool + morsel splitting."""

from repro.parallel.morsel import (
    DEFAULT_MORSEL_ROWS,
    MORSEL_BATCH_ENV_VAR,
    batch_items,
    batch_size,
    batch_spans,
    morsel_ranges,
)
from repro.parallel.pool import (
    PARALLELISM_ENV_VAR,
    POOL_BACKEND_ENV_VAR,
    POOL_BACKENDS,
    PoolRun,
    TaskSpan,
    WorkerPool,
    default_backend,
    default_parallelism,
    greedy_makespan,
)

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "MORSEL_BATCH_ENV_VAR",
    "PARALLELISM_ENV_VAR",
    "POOL_BACKENDS",
    "POOL_BACKEND_ENV_VAR",
    "PoolRun",
    "TaskSpan",
    "WorkerPool",
    "batch_items",
    "batch_size",
    "batch_spans",
    "default_backend",
    "default_parallelism",
    "greedy_makespan",
    "morsel_ranges",
]
