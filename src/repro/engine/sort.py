"""ORDER BY: multi-key vectorised sort with null placement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.expression import Batch, Expr
from repro.engine.operators import Operator
from repro.simd.factorize import factorize


@dataclass
class SortKey:
    """One ORDER BY term."""

    expr: Expr
    ascending: bool = True
    nulls_first: bool | None = None  # None = dialect default (last for ASC)

    def nulls_go_first(self) -> bool:
        if self.nulls_first is not None:
            return self.nulls_first
        # Default: NULLs sort as the largest value (DB2/Oracle behaviour):
        # last for ASC, first for DESC.
        return not self.ascending


class SortOp(Operator):
    """Stable multi-key sort (pipeline breaker)."""

    def __init__(self, child: Operator, keys: list[SortKey]):
        if not keys:
            raise ValueError("sort needs at least one key")
        self.child = child
        self.keys = keys

    def execute(self):
        batch = self.child.run()
        if batch.n == 0:
            yield batch
            return
        order = np.arange(batch.n)
        # Stable sorts applied from the least-significant key to the most.
        for key in reversed(self.keys):
            vector = key.expr.eval(batch)
            values = vector.values[order]
            nulls = vector.null_mask()[order]
            rank = _sortable_rank(values, nulls, key)
            order = order[np.argsort(rank, kind="stable")]
        yield batch.take(order)


def _sortable_rank(values: np.ndarray, nulls: np.ndarray, key: SortKey) -> np.ndarray:
    """Produce an int rank array encoding direction and null placement."""
    # Dense-rank the values so equal values share a rank (ties must not
    # perturb later, less-significant sort keys): NULL rows take code 0,
    # the k distinct values 1..k ascending.
    rank, uniq = factorize(values, nulls)
    span = uniq.size
    if not key.ascending:
        rank = span + 1 - rank
    # Push NULLs beyond either end.
    rank[nulls] = 0 if key.nulls_go_first() else span + 1
    return rank
