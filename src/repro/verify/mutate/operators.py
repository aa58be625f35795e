"""repromutate mutation operators.

Each operator models a bug class this engine has actually shipped (or
nearly shipped — see the PR history in CHANGES.md): dropped WAL appends
and commit-clock bumps, swapped ``xmin``/``xmax`` stamps, off-by-one
morsel ranges, deleted lock acquisitions, commuted aggregate merges,
inverted predicate comparisons and dropped ``finally`` releases — plus
the three classic generic operators (boundary, boolean, constant).

An operator exposes two methods over a parsed module:

* ``find(tree, module)`` returns the ordered list of mutation targets —
  a pure function of the AST, so the same source always yields the same
  targets in the same order (mutant generation is deterministic and
  clock/RNG-free by construction);
* ``apply(tree, ordinal)`` re-locates target ``ordinal`` on a *fresh*
  parse of the same source and mutates the tree in place.  The engine
  then ``ast.unparse``s the mutated tree, so a witness diff against the
  unparsed pristine tree shows exactly the mutated statement.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# target bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Target:
    """One mutable site: the node plus enough context to splice it."""

    node: ast.AST
    lineno: int
    col: int
    description: str
    #: for statement-level mutations: (parent node, body field, index)
    parent: tuple[ast.AST, str, int] | None = None


def _walk_with_parents(tree: ast.AST):
    """Yield ``(node, parent, field, index)`` over every node, where the
    parent triple addresses the node inside a statement list (or
    ``(parent, field, None)`` for non-list fields)."""
    stack: list[tuple[ast.AST, ast.AST | None, str | None, int | None]] = [
        (tree, None, None, None)
    ]
    while stack:
        node, parent, field, index = stack.pop()
        yield node, parent, field, index
        for name, value in reversed(list(ast.iter_fields(node))):
            if isinstance(value, list):
                for i, item in enumerate(reversed(value)):
                    if isinstance(item, ast.AST):
                        stack.append((item, node, name, len(value) - 1 - i))
            elif isinstance(value, ast.AST):
                stack.append((value, node, name, None))


def _sort_targets(targets: list[Target]) -> list[Target]:
    targets.sort(key=lambda t: (t.lineno, t.col, t.description))
    return targets


def _drop_statement(target: Target) -> None:
    """Remove a statement from its parent body, leaving ``pass`` behind
    when the body would otherwise be empty (keeps the module parseable)."""
    assert target.parent is not None
    parent, field, index = target.parent
    body = getattr(parent, field)
    stmt = body[index]
    body.remove(stmt)
    if not body:
        body.append(ast.copy_location(ast.Pass(), stmt))


class Operator:
    """Base class: subclasses set ``name``/``description`` and implement
    :meth:`find` and :meth:`mutate`."""

    name: str = ""
    description: str = ""

    def find(self, tree: ast.Module, module: str) -> list[Target]:
        raise NotImplementedError

    def mutate(self, target: Target) -> None:
        raise NotImplementedError

    def apply(self, tree: ast.Module, module: str, ordinal: int) -> bool:
        targets = self.find(tree, module)
        if ordinal >= len(targets):
            return False
        self.mutate(targets[ordinal])
        return True


# ---------------------------------------------------------------------------
# repo-specific operators
# ---------------------------------------------------------------------------


def _call_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
    ):
        return node.value.func.attr
    return None


class DropWalAppend(Operator):
    """Delete a ``log_*`` WAL-append statement — the bug class the
    write-protocol rule and PR 9's ``Cluster._insert_rows`` fix exist
    for: a mutation that commits without leaving a redo record."""

    name = "drop-wal"
    description = "delete a log_* WAL-append statement"

    def find(self, tree, module):
        out = []
        for node, parent, field, index in _walk_with_parents(tree):
            attr = _call_attr(node)
            if attr is not None and attr.startswith("log_") and index is not None:
                out.append(Target(node, node.lineno, node.col_offset,
                                  "drop %s(...)" % attr,
                                  (parent, field, index)))
        return _sort_targets(out)

    def mutate(self, target):
        _drop_statement(target)


class DropCommitHook(Operator):
    """Delete a ``_note_commit`` / ``note_table`` statement: the commit
    clock stops bumping (stale serving caches) or abort loses its
    rollback registration."""

    name = "drop-commit-hook"
    description = "delete a _note_commit/note_table commit-hook statement"

    _ATTRS = ("_note_commit", "note_table")

    def find(self, tree, module):
        out = []
        for node, parent, field, index in _walk_with_parents(tree):
            attr = _call_attr(node)
            if attr in self._ATTRS and index is not None:
                out.append(Target(node, node.lineno, node.col_offset,
                                  "drop %s(...)" % attr,
                                  (parent, field, index)))
        return _sort_targets(out)

    def mutate(self, target):
        _drop_statement(target)


class SwapVersionStamp(Operator):
    """Swap a single ``xmin``/``xmax`` attribute occurrence — a creator
    stamp read where the deleter stamp belongs (or vice versa) makes
    exactly the wrong rows visible."""

    name = "swap-xmin-xmax"
    description = "swap one xmin/xmax version-stamp occurrence"

    _SWAP = {"xmin": "xmax", "xmax": "xmin",
             "xmin_hi": "xmax_hi", "xmax_hi": "xmin_hi"}

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if isinstance(node, ast.Attribute) and node.attr in self._SWAP:
                out.append(Target(node, node.lineno, node.col_offset,
                                  "%s -> %s" % (node.attr,
                                                self._SWAP[node.attr])))
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg in self._SWAP:
                        out.append(Target(kw, node.lineno, node.col_offset,
                                          "%s= -> %s=" % (kw.arg,
                                                          self._SWAP[kw.arg])))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        if isinstance(node, ast.Attribute):
            node.attr = self._SWAP[node.attr]
        else:
            node.arg = self._SWAP[node.arg]


class OffByOneRange(Operator):
    """Shrink an arithmetic bound by one inside ``range``/``min``/``max``
    calls and slice bounds — the morsel-range bug class: a span that
    silently drops (or double-counts) its last row."""

    name = "off-by-one"
    description = "subtract 1 from a range/min/max/slice bound expression"

    _BOUND_CALLS = ("range", "min", "max")

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            candidates: list[ast.AST] = []
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in self._BOUND_CALLS:
                candidates = list(node.args)
            elif isinstance(node, ast.Slice):
                candidates = [b for b in (node.lower, node.upper) if b is not None]
            for arg in candidates:
                if isinstance(arg, ast.BinOp) and isinstance(
                    arg.op, (ast.Add, ast.Sub)
                ):
                    out.append(Target(arg, arg.lineno, arg.col_offset,
                                      "bound expression minus 1"))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        clone = ast.BinOp(
            left=ast.BinOp(left=node.left, op=node.op, right=node.right),
            op=ast.Sub(),
            right=ast.Constant(value=1),
        )
        ast.copy_location(clone, node)
        ast.fix_missing_locations(clone)
        node.left, node.op, node.right = clone.left, clone.op, clone.right


def _with_names(node: ast.With) -> list[str]:
    names = []
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        parts = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name):
            parts.append(expr.id)
        names.extend(parts)
    return names


class DropLockAcquire(Operator):
    """Unwrap a ``with <lock>:`` block — the guarded section still runs,
    just without mutual exclusion; exactly the race the sanitizer and the
    model checker exist to catch."""

    name = "drop-lock"
    description = "unwrap a with-lock block (body runs unguarded)"

    def find(self, tree, module):
        out = []
        for node, parent, field, index in _walk_with_parents(tree):
            if not isinstance(node, ast.With) or index is None:
                continue
            if any("lock" in name.lower() for name in _with_names(node)):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "drop lock acquisition, keep body",
                                  (parent, field, index)))
        return _sort_targets(out)

    def mutate(self, target):
        assert target.parent is not None
        parent, field, index = target.parent
        body = getattr(parent, field)
        with_node = body[index]
        body[index:index + 1] = list(with_node.body)


class DropFinallyRelease(Operator):
    """Delete a release/close/unlink/clear call from a ``finally`` block:
    the resource leaks exactly on the error path."""

    name = "drop-finally"
    description = "delete a release/close call from a finally block"

    _RELEASE_HINTS = ("release", "close", "unlink", "shutdown", "clear",
                      "discard")

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for i, stmt in enumerate(node.finalbody):
                attr = _call_attr(stmt)
                if attr is not None and any(
                    hint in attr for hint in self._RELEASE_HINTS
                ):
                    out.append(Target(stmt, stmt.lineno, stmt.col_offset,
                                      "drop %s(...) from finally" % attr,
                                      (node, "finalbody", i)))
        return _sort_targets(out)

    def mutate(self, target):
        _drop_statement(target)


class CommuteMerge(Operator):
    """Commute a partial-aggregate merge inside merge-flavoured functions
    (``merge``/``merge_*``/``add_morsel``/``combine*``): reverse the fold
    order of a loop, or flip ``a.merge(b)`` into ``b.merge(a)``.  Merges
    must be order-independent or run in morsel order to be deterministic."""

    name = "commute-merge"
    description = "commute a merge fold (reverse loop or swap receiver/arg)"

    _FN_HINTS = ("merge", "add_morsel", "combine")

    def _merge_functions(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                hint in node.name for hint in self._FN_HINTS
            ):
                yield node

    def find(self, tree, module):
        out = []
        for fn in self._merge_functions(tree):
            for node in ast.walk(fn):
                if isinstance(node, ast.For):
                    out.append(Target(node, node.lineno, node.col_offset,
                                      "reverse merge fold order"))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "merge"
                    and len(node.args) == 1
                    and isinstance(node.args[0], (ast.Name, ast.Attribute))
                    and isinstance(node.func.value, (ast.Name, ast.Attribute))
                ):
                    out.append(Target(node, node.lineno, node.col_offset,
                                      "swap merge receiver and argument"))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        if isinstance(node, ast.For):
            node.iter = ast.copy_location(
                ast.Call(func=ast.Name(id="reversed", ctx=ast.Load()),
                         args=[node.iter], keywords=[]),
                node.iter,
            )
            ast.fix_missing_locations(node.iter)
        else:
            receiver, argument = node.func.value, node.args[0]
            node.func.value, node.args[0] = argument, receiver


class InvertPredicate(Operator):
    """Negate one comparison in predicate-evaluation code (expression,
    fused-kernel, SIMD and column modules): the filter keeps exactly the
    rows it should drop."""

    name = "invert-predicate"
    description = "negate one comparison in predicate-evaluation modules"

    _MODULE_HINTS = ("expression", "fused", "simd", "predicate", "column")
    _NEGATE = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
               ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt}

    def find(self, tree, module):
        if not any(hint in module for hint in self._MODULE_HINTS):
            return []
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and type(node.ops[0]) in self._NEGATE
            ):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "negate %s comparison"
                                  % type(node.ops[0]).__name__))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        node.ops[0] = self._NEGATE[type(node.ops[0])]()


# ---------------------------------------------------------------------------
# generic operators
# ---------------------------------------------------------------------------


class Boundary(Operator):
    """Classic boundary mutation: ``<`` ↔ ``<=`` and ``>`` ↔ ``>=``."""

    name = "boundary"
    description = "swap strict and non-strict comparison (< <-> <=, > <-> >=)"

    _SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and type(node.ops[0]) in self._SWAP
            ):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "%s boundary swap"
                                  % type(node.ops[0]).__name__))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        node.ops[0] = self._SWAP[type(node.ops[0])]()


class BooleanFlip(Operator):
    """``and`` ↔ ``or``, and ``not x`` → ``x``."""

    name = "boolean"
    description = "flip and/or, strip a not"

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if isinstance(node, ast.BoolOp):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "and <-> or"))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "strip not"))
        return _sort_targets(out)

    def mutate(self, target):
        node = target.node
        if isinstance(node, ast.BoolOp):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        else:
            # `not x` -> `not not x` (== bool(x)): the polarity flips back
            # to the operand's truthiness while the mutation stays in
            # place on the UnaryOp node (the node's expression slot in its
            # parent never has to be rewired).
            inner = ast.UnaryOp(op=ast.Not(), operand=node.operand)
            ast.copy_location(inner, node)
            ast.fix_missing_locations(inner)
            node.operand = inner


class ConstantTweak(Operator):
    """Add one to a small integer constant."""

    name = "constant"
    description = "replace small integer constant c with c + 1"

    _LIMIT = 4096

    def find(self, tree, module):
        out = []
        for node, _, _, _ in _walk_with_parents(tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and abs(node.value) <= self._LIMIT
            ):
                out.append(Target(node, node.lineno, node.col_offset,
                                  "%d -> %d" % (node.value, node.value + 1)))
        return _sort_targets(out)

    def mutate(self, target):
        target.node.value = target.node.value + 1


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: Every operator, in catalog (and report) order.  Repo-specific first.
ALL_OPERATORS: tuple[Operator, ...] = (
    DropWalAppend(),
    DropCommitHook(),
    SwapVersionStamp(),
    OffByOneRange(),
    DropLockAcquire(),
    DropFinallyRelease(),
    CommuteMerge(),
    InvertPredicate(),
    Boundary(),
    BooleanFlip(),
    ConstantTweak(),
)

OPERATORS_BY_NAME: dict[str, Operator] = {op.name: op for op in ALL_OPERATORS}

#: The operator set CI runs by default: every repo-specific operator plus
#: the generic trio.
DEFAULT_OPERATOR_NAMES: tuple[str, ...] = tuple(op.name for op in ALL_OPERATORS)


def resolve_operators(names: list[str] | None) -> list[Operator]:
    """Map operator names to instances; None means the full catalog."""
    if not names:
        return list(ALL_OPERATORS)
    unknown = [n for n in names if n not in OPERATORS_BY_NAME]
    if unknown:
        raise ValueError(
            "unknown mutation operator(s): %s (known: %s)"
            % (", ".join(sorted(unknown)), ", ".join(OPERATORS_BY_NAME))
        )
    return [OPERATORS_BY_NAME[n] for n in names]
