"""reproflow — interprocedural effect & protocol analysis over ``src/repro``.

The engine's cross-cutting protocols — every mutation must reach the WAL,
bump the per-table commit-version clock, and notify the serving cache;
every pinned snapshot must stay statement-scoped; every manually managed
resource must be released on exception paths; every engine error crossing
the public API must carry a SQLSTATE — hold *by convention*, enforced at a
handful of choke points (``Database._execute_write_node``, the planner's
snapshot plumbing, ``try/finally`` blocks).  reprolint checks some of them
per-function, which goes blind the moment an obligation moves into a
helper.  reproflow closes that gap:

* :mod:`repro.verify.flow.callgraph` parses the whole project into a
  :class:`~repro.verify.flow.callgraph.ProjectIndex` — every function and
  method (nested ones included), a name-resolved over-approximate call
  graph, pool-submitted callables (``pool.map(fn, ...)`` /
  ``executor.submit(fn, ...)``) and registered commit listeners;
* :mod:`repro.verify.flow.effects` infers per-function *effect sets*
  (mutates-table-storage, appends-WAL-redo, bumps-version-clock,
  records-touched-tables, pins-snapshot, raises-exception-class, ...) and
  closes them transitively over the call graph;
* :mod:`repro.verify.flow.protocols` checks the protocol rules on the
  closed effect sets: ``write-protocol`` (mutation implies WAL + version
  bump + touched-table recording, and committing a transaction implies
  serving-cache notification), ``snapshot-scope`` (no snapshot pinning
  inside pool-submitted callables, no snapshot escaping into long-lived
  attributes), ``resource-pairing`` (manual lock acquire/release and
  manual span enter/exit must pair on exception paths) and ``sqlstate``
  (engine errors crossing the Database/Cluster public API carry a
  SQLSTATE).

Findings are suppressed per line with a justification comment::

    some_call()  # flow-ok: rule-name (why this is intentional)

sharing reprolint's ``suppression-justification`` meta-rule: a flow-ok
without a parenthesised justification silences the finding but is itself
reported.  CI runs ``python -m repro.verify.flow src`` and fails on any
unsuppressed finding.
"""

from __future__ import annotations

from repro.verify.flow.analyzer import (  # noqa: F401
    FlowReport,
    analyze_paths,
    analyze_sources,
    main,
)

__all__ = ["FlowReport", "analyze_paths", "analyze_sources", "main"]
