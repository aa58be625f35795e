"""Vectorised key factorisation kernels behind every GROUP BY and DISTINCT.

``np.unique(return_inverse)`` assigns codes by sorting every row
(``O(n log n)`` with a mergesort under the hood).  Analytical group keys
are overwhelmingly *small-domain* — dictionary-coded strings and dense
surrogate ids — so these kernels factorise in ``O(n)``:

* int64 keys whose value span is comparable to the row count use a
  direct-address presence table plus a ``cumsum`` rank scan (two passes,
  both single numpy calls that release the GIL);
* object (string) keys use one dict pass over the distinct values and a
  vectorised rank gather — the dict only ever holds the (small) distinct
  set, never per-row state;
* everything else falls back to ``np.unique``.

All paths produce the same contract: NULL takes code 0 and non-NULL values
take codes ``1..k`` in ascending value order.  :func:`key_codes` packs these
per-column codes into one dense multi-column key code and, for wide keys,
re-densifies the packed prefix with :func:`factorize_int` — the ranks are
order-preserving, so group output stays NULL first, then ascending.  Every
GROUP BY, DISTINCT, set operation and hash join encodes its keys with it.
"""

from __future__ import annotations

import numpy as np

#: Direct addressing is used while the key span stays within this factor of
#: the row count (plus slack for tiny inputs); beyond it the presence table
#: would thrash cache for no win and the sort-based path takes over.
_DIRECT_SPAN_FACTOR = 4
_DIRECT_SPAN_SLACK = 1024

#: Combined radix beyond which multi-column key packing would overflow
#: int64; :func:`key_codes` re-densifies the packed prefix before it.
_RADIX_LIMIT = 1 << 62


def direct_addressable(span: int, rows: int) -> bool:
    """Whether a table indexed by ``value - min`` over ``span`` slots is
    worth building for ``rows`` rows (else sorting is cheaper)."""
    return span <= _DIRECT_SPAN_FACTOR * rows + _DIRECT_SPAN_SLACK


def factorize_int(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-based codes for an int64 array with no NULLs.

    Returns ``(codes, uniques)``: ``codes[i]`` is the ascending rank
    (1..k) of ``values[i]`` among the distinct values, ``uniques`` the
    distinct values ascending.
    """
    if values.size == 0:
        return values.astype(np.int64), values
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo + 1
    if direct_addressable(span, values.size):
        shifted = values - lo
        present = np.zeros(span, dtype=bool)
        present[shifted] = True
        ranks = np.cumsum(present)  # 1-based rank at each present slot
        return ranks[shifted], lo + np.flatnonzero(present)
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64) + 1, uniques


def factorize_object(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-based codes for an object (string) array with no NULLs."""
    seen: dict = {}
    ids = np.empty(values.size, dtype=np.int64)
    for i, value in enumerate(values.tolist()):
        code = seen.get(value)
        if code is None:
            code = len(seen)
            seen[value] = code
        ids[i] = code
    ordered = sorted(seen)  # Python str order == np.unique object order
    rank = np.empty(len(ordered), dtype=np.int64)
    for r, value in enumerate(ordered):
        rank[seen[value]] = r + 1
    return rank[ids], np.array(ordered, dtype=object)


def factorize(
    values: np.ndarray, nulls: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Factorise one key column, reserving code 0 for NULL rows.

    Returns ``(codes, uniques)`` with ``codes`` an int64 array over all
    rows (NULL rows 0, others 1..k ascending) and ``uniques`` the distinct
    non-NULL values ascending.  The garbage values sitting under NULL slots
    are never ranked.
    """
    n = values.shape[0]
    if nulls is not None and nulls.any():
        live = ~nulls
        live_values = values[live]
    else:
        live = None
        live_values = values
    if live_values.size == 0:
        return np.zeros(n, dtype=np.int64), values[:0]
    if values.dtype == np.int64:
        live_codes, uniques = factorize_int(live_values)
    elif values.dtype == object:
        live_codes, uniques = factorize_object(live_values)
    else:
        uniques, inverse = np.unique(live_values, return_inverse=True)
        live_codes = inverse.astype(np.int64) + 1
    if live is None:
        return live_codes, uniques
    codes = np.zeros(n, dtype=np.int64)
    codes[live] = live_codes
    return codes, uniques


def key_codes(key_pairs) -> tuple[np.ndarray, int]:
    """Dense codes for a multi-column key, one per row.

    ``key_pairs`` is one ``(values, nulls-or-None)`` pair per key column,
    all of one length.  Returns ``(codes, k)``: int64 codes in ``0..k-1``
    that are equal exactly when the key tuples are equal (NULL equal to
    NULL), ordered per column NULL first, then ascending.

    Per-column :func:`factorize` codes pack into one int64 radix code.
    When the running radix product would pass :data:`_RADIX_LIMIT`, the
    packed prefix is re-densified with :func:`factorize_int` first; that
    is order-preserving and bounds the prefix radix by the row count, so
    packing never overflows and never raises.
    """
    n = key_pairs[0][0].shape[0]
    combined = np.zeros(n, dtype=np.int64)
    size = 1
    for values, nulls in key_pairs:
        codes, uniq = factorize(values, nulls)
        radix = uniq.size + 1
        if size > _RADIX_LIMIT // radix:
            combined, dense = factorize_int(combined)
            size = dense.size + 1
        combined = combined * radix + codes
        size *= radix
    packed, uniques = factorize_int(combined)
    return packed - 1, uniques.size
