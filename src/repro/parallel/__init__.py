"""Deterministic process-parallel execution layer.

Fan work out across a stdlib ``ProcessPoolExecutor`` while keeping every
result bit-identical to a serial run: chunk boundaries and per-chunk
random seeds depend only on the problem size, worker functions are pure,
and each worker's span tree + metrics registry is captured and merged
back into the parent observability session (one ``parallel.chunk[i]``
span per chunk) so the span-sum==ledger invariant survives the process
boundary.  Falls back to in-process serial execution whenever
``workers <= 1``, the function/payloads do not pickle, or the pool
cannot start.  See DESIGN.md §8.

Worker pools are kept warm across calls (:func:`shutdown_pools` tears
them down, and runs at interpreter exit).  Parallelism lives at the
trial level -- Monte-Carlo chunks, fault-campaign trials, sweep points,
design-space points -- never inside one search.
"""

from .executor import (
    available_cpus,
    map_chunks,
    resolve_workers,
    scatter_gather,
    shutdown_pools,
)
from .seeding import DEFAULT_CHUNKS, chunk_bounds, default_chunk_size, spawn_seeds

__all__ = [
    "DEFAULT_CHUNKS",
    "available_cpus",
    "chunk_bounds",
    "default_chunk_size",
    "map_chunks",
    "resolve_workers",
    "scatter_gather",
    "shutdown_pools",
    "spawn_seeds",
]
