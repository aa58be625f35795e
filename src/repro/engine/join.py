"""Vectorised hash join over dense key codes (paper II.B.7).

Both sides' join keys map into one dense code space first — the
"partition both sides the same way" step of a partitioned hash join,
expressed as dictionary coding.  Per-code counts and starts over a stable
build order then play the hash table: each probe row reads its matches
as one contiguous run, in build-row order.  One kernel serves every DOP;
a pool only splits the probe rows into spans.  Join types: inner, left,
right, full, semi, anti.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.expression import Batch, Expr, selection_mask
from repro.engine.operators import Operator
from repro.parallel.morsel import batch_spans
from repro.simd.factorize import direct_addressable, key_codes
from repro.storage.column import ColumnVector


@dataclass
class JoinStats:
    """Observability counters for one join execution (monitor layer)."""

    build_rows: int = 0
    probe_rows: int = 0
    matched_pairs: int = 0
    output_rows: int = 0

_JOIN_TYPES = {"inner", "left", "right", "full", "semi", "anti"}


class HashJoinOp(Operator):
    """Equi-join two operators on lists of key columns.

    Args:
        left / right: child operators (left is the probe side; right is
            built into the per-code match table).
        left_keys / right_keys: equal-length column name lists.
        join_type: inner / left / right / full / semi / anti (semi and anti
            emit only left columns).  A NULL key part never matches.
        residual: optional non-equi condition evaluated on joined rows.
        pool: optional :class:`~repro.parallel.pool.WorkerPool`.  Probe
            rows split into batched morsel spans on it (inline at DOP 1);
            each probe row's matches depend on that row alone, so span
            results concatenated in span order are the one-span output.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[str],
        right_keys: list[str],
        join_type: str = "inner",
        residual: Expr | None = None,
        pool=None,
    ):
        if join_type not in _JOIN_TYPES:
            raise ValueError("unknown join type %r" % join_type)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("join needs matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.residual = residual
        self.pool = pool
        self.stats = JoinStats()
        self.parallel_run = None

    def _vector_join(self, probe: Batch, build: Batch):
        """Matched (probe row, build row) index pairs, in probe-row order
        and, per probe row, in build-row order."""
        probe_codes, build_rows, build_codes, k = join_codes(
            probe, build, self.left_keys, self.right_keys
        )
        probe_span = probe_kernel(probe_codes, build_rows, build_codes, k)
        pool = self.pool
        if pool is None:
            parts = [probe_span((0, probe.n))]
        else:
            spans = batch_spans(probe.n, None, pool.parallelism)
            parts = pool.map(probe_span, spans, label="join-probe")
            self.parallel_run = pool.last_run
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
        )

    # -- execution ---------------------------------------------------------------

    def execute(self):
        build = self.right.run()
        probe = self.left.run()
        self.stats = JoinStats(build_rows=build.n, probe_rows=probe.n)
        matched_left = np.zeros(probe.n, dtype=bool)
        matched_right = np.zeros(build.n, dtype=bool)
        if probe.n and build.n:
            li, ri = self._vector_join(probe, build)
            matched_left[li] = True
        else:
            li = np.zeros(0, dtype=np.int64)
            ri = np.zeros(0, dtype=np.int64)

        if self.residual is not None and li.size:
            joined = self._stitch(probe, build, li, ri)
            keep = selection_mask(self.residual, joined)
            # Residual failures void the match for outer bookkeeping.
            li, ri = li[keep], ri[keep]
            matched_left[:] = False
            matched_left[li] = True
        if ri.size:
            matched_right[ri] = True
        self.stats.matched_pairs = int(li.size)

        if self.join_type == "semi":
            result = probe.filter(matched_left)
            self.stats.output_rows = result.n
            if result.n:
                yield result
            return
        if self.join_type == "anti":
            # NULL keys never match, and in NOT-IN-style anti joins they
            # still qualify here (planner handles NOT IN null semantics).
            result = probe.filter(~matched_left)
            self.stats.output_rows = result.n
            if result.n:
                yield result
            return

        batches = []
        inner = self._stitch(probe, build, li, ri)
        if inner.n:
            batches.append(inner)
        if self.join_type in ("left", "full"):
            unmatched = ~matched_left
            if unmatched.any():
                batches.append(self._null_extend(probe.filter(unmatched), build, right_null=True))
        if self.join_type in ("right", "full"):
            unmatched = ~matched_right
            if unmatched.any():
                batches.append(self._null_extend(build.filter(unmatched), probe, right_null=False))
        merged = Batch.concat(batches) if batches else Batch(columns={}, n=0)
        self.stats.output_rows = merged.n
        if merged.n:
            yield merged

    def _stitch(self, probe: Batch, build: Batch, li: np.ndarray, ri: np.ndarray) -> Batch:
        columns = {}
        for name, vector in probe.columns.items():
            columns[name] = vector.take(li)
        for name, vector in build.columns.items():
            if name not in columns:
                columns[name] = vector.take(ri)
        return Batch.from_columns(columns)

    def _null_extend(self, kept: Batch, other: Batch, right_null: bool) -> Batch:
        return null_extend(kept, other, right_null)


def join_codes(probe: Batch, build: Batch, left_keys, right_keys):
    """Map both sides' join keys into one dense code space.

    Returns ``(probe_codes, build_rows, build_codes, k)``: ``build_rows``
    are the build rows with no NULL key part and ``build_codes`` their
    codes in ``0..k-1``; probe codes lie in ``0..k``, where ``k`` means
    "no match" (a NULL key part, or a key outside the build's range).
    A single int64 key whose build values span a small range codes as
    its offset from the build minimum — no pass over the probe's
    distinct values; any other key shape factorises the union of both
    sides with :func:`~repro.simd.factorize.key_codes`.
    """
    n_probe = probe.n
    if len(left_keys) == 1:
        lv = probe.columns[left_keys[0]]
        rv = build.columns[right_keys[0]]
        if lv.values.dtype == np.int64 and rv.values.dtype == np.int64:
            build_rows = np.flatnonzero(~rv.null_mask())
            bvals = rv.values[build_rows]
            if bvals.size:
                lo, hi = int(bvals.min()), int(bvals.max())
                if direct_addressable(hi - lo + 1, bvals.size + n_probe):
                    k = hi - lo + 1
                    pv = lv.values
                    hit = (pv >= lo) & (pv <= hi) & ~lv.null_mask()
                    return np.where(hit, pv - lo, k), build_rows, bvals - lo, k
    pairs = []
    for lk, rk in zip(left_keys, right_keys):
        lv = probe.columns[lk]
        rv = build.columns[rk]
        left_vals, right_vals = _align_key_arrays(lv.values, rv.values)
        pairs.append((
            np.concatenate([left_vals, right_vals]),
            np.concatenate([lv.null_mask(), rv.null_mask()]),
        ))
    codes, k = key_codes(pairs)
    null_part = np.logical_or.reduce([nulls for _, nulls in pairs])
    codes[null_part] = k
    build_rows = np.flatnonzero(~null_part[n_probe:])
    return codes[:n_probe], build_rows, codes[n_probe:][build_rows], k


def probe_kernel(probe_codes, build_rows, build_codes, k):
    """The probe over dense codes, as a ``(start, stop) -> (li, ri)`` task.

    Per-code counts and starts over a stable sort of the build codes give
    each code's build rows as one run in build-row order; a probe row of
    code ``c`` matches ``rows_by_code[starts[c]:starts[c] + counts[c]]``.
    Code ``k`` has count 0.  When no code repeats — a key lookup against
    a unique build side — each run is one slot, read with one gather.
    """
    counts = np.bincount(build_codes, minlength=k + 1)
    if counts.max() < 2:
        row_of_code = np.full(k + 1, -1, dtype=np.int64)
        row_of_code[build_codes] = build_rows

        def probe_unique(span):
            start, stop = span
            targets = row_of_code[probe_codes[start:stop]]
            hits = np.flatnonzero(targets >= 0)
            return hits + start, targets[hits]

        return probe_unique
    rows_by_code = build_rows[np.argsort(build_codes, kind="stable")]
    starts = np.cumsum(counts) - counts

    def probe_span(span):
        start, stop = span
        codes = probe_codes[start:stop]
        n_matches = counts[codes]
        li = np.repeat(np.arange(start, stop, dtype=np.int64), n_matches)
        run_base = starts[codes] - (np.cumsum(n_matches) - n_matches)
        positions = np.repeat(run_base, n_matches) + np.arange(li.size)
        return li, rows_by_code[positions]

    return probe_span


def _align_key_arrays(left: np.ndarray, right: np.ndarray):
    """Bring two key arrays to a unifiable dtype for factorisation."""
    if left.dtype == object or right.dtype == object:
        if left.dtype != object:
            boxed = np.empty(left.size, dtype=object)
            boxed[:] = left.tolist()
            left = boxed
        if right.dtype != object:
            boxed = np.empty(right.size, dtype=object)
            boxed[:] = right.tolist()
            right = boxed
        return left, right
    if left.dtype != right.dtype:
        return left.astype(np.float64), right.astype(np.float64)
    return left, right


def null_extend(kept: Batch, other: Batch, right_null: bool) -> Batch:
    """Pad unmatched outer rows with NULLs for the other side's columns."""
    columns = dict(kept.columns)
    n = kept.n
    for name, vector in other.columns.items():
        if name in columns:
            continue
        np_dtype = vector.dtype.numpy_dtype
        filler = "" if np_dtype == object else 0
        values = np.full(n, filler, dtype=np_dtype)
        columns[name] = ColumnVector(vector.dtype, values, np.ones(n, dtype=bool))
    if not right_null:
        # Keep probe-side column ordering stable for right/full joins.
        ordered = {}
        for name in other.columns:
            ordered[name] = columns[name]
        for name in kept.columns:
            if name not in ordered:
                ordered[name] = columns[name]
        columns = ordered
    return Batch.from_columns(columns)


class NestedLoopJoinOp(Operator):
    """Fallback join for arbitrary (non-equi) conditions."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        condition: Expr | None,
        join_type: str = "inner",
    ):
        if join_type not in ("inner", "left", "cross"):
            raise ValueError("nested-loop join supports inner/left/cross")
        self.left = left
        self.right = right
        self.condition = condition
        self.join_type = join_type
        self.stats = JoinStats()

    def execute(self):
        left = self.left.run()
        right = self.right.run()
        self.stats = JoinStats(build_rows=right.n, probe_rows=left.n)
        if left.n == 0 or (right.n == 0 and self.join_type != "left"):
            return
        li = np.repeat(np.arange(left.n), max(right.n, 1))
        ri = np.tile(np.arange(right.n), left.n) if right.n else np.zeros(0, np.int64)
        if right.n == 0:
            cross = None
        else:
            columns = {}
            for name, vector in left.columns.items():
                columns[name] = vector.take(li)
            for name, vector in right.columns.items():
                if name not in columns:
                    columns[name] = vector.take(ri)
            cross = Batch.from_columns(columns)
        if self.condition is not None and cross is not None:
            keep = selection_mask(self.condition, cross)
            matched = np.zeros(left.n, dtype=bool)
            matched[li[keep]] = True
            cross = cross.filter(keep)
        else:
            matched = np.ones(left.n, dtype=bool) if cross is not None else np.zeros(left.n, bool)
        batches = [cross] if cross is not None and cross.n else []
        if self.join_type == "left":
            unmatched = ~matched
            if unmatched.any():
                batches.append(null_extend(left.filter(unmatched), right, right_null=True))
        if batches:
            merged = Batch.concat(batches)
            self.stats.output_rows = merged.n
            yield merged
