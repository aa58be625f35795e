"""reproflow driver: sources -> index -> effects -> findings -> report.

Reuses reprolint's reporting vocabulary (:class:`repro.verify.lint.Finding`)
and its suppression grammar, with ``flow-ok`` as the marker::

    txn.commit()  # flow-ok: write-protocol (recovery replays committed WAL)

A ``flow-ok`` without a parenthesised justification silences its finding
but is itself reported under the shared ``suppression-justification``
meta-rule, exactly like ``lint-ok``.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field

from repro.verify.lint import Finding, Suppression, iter_python_files
from repro.verify.flow.callgraph import ProjectIndex
from repro.verify.flow.effects import close_effects, direct_effects
from repro.verify.flow.protocols import ALL_RULES, run_all

#: Suppression comment: ``# flow-ok: rule-a,rule-b (justification)``.
_SUPPRESS_RE = re.compile(
    r"#\s*flow-ok:\s*(?P<rules>[a-z0-9_,\s-]+?)\s*(?:\((?P<why>.*)\))?\s*$"
)

RULE_DESCRIPTIONS = {
    "write-protocol": "mutation implies WAL append + version bump + "
                      "touched-table recording; txn.commit implies all three",
    "snapshot-scope": "no fresh snapshot pinned inside pool-submitted "
                      "callables; snapshots must not escape statement scope",
    "resource-pairing": "manual locks and manual spans are released in a "
                        "finally block",
    "sqlstate": "engine errors crossing the Database/Cluster/gateway public "
                "API carry a SQLSTATE",
    "suppression-justification": "every flow-ok suppression carries a "
                                 "(justification)",
    "stale-suppression": "flow-ok comment names a rule that no longer "
                         "fires on its line (full runs only)",
}


def _parse_suppressions(lines: list[str]) -> dict[int, Suppression]:
    table: dict[int, Suppression] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        names = {
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        }
        why = match.group("why")
        table[lineno] = Suppression(names, why.strip() if why else None)
    return table


def _suppression_site(
    table: dict[int, Suppression], lines: list[str], rule: str, line: int
) -> int | None:
    """Line of the suppression covering ``rule`` at ``line``: same-line or
    pure-comment-line-above, mirroring reprolint."""
    for candidate in (line, line - 1):
        sup = table.get(candidate)
        if sup is None:
            continue
        if candidate == line - 1:
            text = lines[candidate - 1].strip() if (
                0 < candidate <= len(lines)
            ) else ""
            if not text.startswith("#"):
                continue
        if rule in sup.rules or "all" in sup.rules:
            return candidate
    return None


def _suppression_for(
    table: dict[int, Suppression], lines: list[str], rule: str, line: int
) -> Suppression | None:
    site = _suppression_site(table, lines, rule, line)
    return table[site] if site is not None else None


def _string_literal_lines(source: str) -> set[int]:
    """Lines covered by str/bytes constants — a flow-ok inside a literal
    (fixture corpora in test files, docstring examples) is data."""
    covered: set[int] = set()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return covered
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (str, bytes)
        ):
            end = getattr(node, "end_lineno", None) or node.lineno
            covered.update(range(node.lineno, end + 1))
    return covered


@dataclass
class FlowReport:
    """All findings from one analysis run."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "unsuppressed": len(self.active),
            "suppressed": len(self.suppressed),
        }


def analyze_sources(
    sources: dict[str, str], rules: list[str] | None = None
) -> FlowReport:
    """Analyze a ``{path: source}`` mapping (tests feed fixture corpora
    through this without touching the filesystem)."""
    index = ProjectIndex(sources)
    direct = direct_effects(index)
    closed = close_effects(index, direct)

    suppression_tables = {
        module: _parse_suppressions(lines)
        for module, lines in index.lines.items()
    }

    report = FlowReport()
    wanted = set(rules) if rules else None
    used_sites: set[tuple[str, int, str]] = set()
    for raw in run_all(index, direct, closed):
        if wanted is not None and raw.rule not in wanted:
            continue
        table = suppression_tables.get(raw.module, {})
        lines = index.lines.get(raw.module, [])
        sup = _suppression_for(table, lines, raw.rule, raw.lineno)
        if sup is not None:
            site = _suppression_site(table, lines, raw.rule, raw.lineno)
            used_sites.add((raw.module, site, raw.rule))
        report.findings.append(
            Finding(
                rule=raw.rule,
                path=raw.module,
                line=raw.lineno,
                message=raw.message,
                suppressed=sup is not None,
                justification=sup.justification if sup else None,
            )
        )
    if wanted is None or "suppression-justification" in wanted:
        for module, table in sorted(suppression_tables.items()):
            for lineno, sup in sorted(table.items()):
                if not sup.justification:
                    report.findings.append(
                        Finding(
                            rule="suppression-justification",
                            path=module,
                            line=lineno,
                            message="flow-ok suppression of %s has no "
                                    "(justification)"
                                    % ", ".join(sorted(sup.rules)),
                        )
                    )
    if wanted is None:
        # Staleness is only decidable on full runs: under --rule
        # selection an unselected rule never got the chance to fire.
        known = set(ALL_RULES)
        for module, table in sorted(suppression_tables.items()):
            literal_lines: set[int] | None = None
            for lineno, sup in sorted(table.items()):
                stale = [
                    name for name in sorted(sup.rules)
                    if name in known
                    and (module, lineno, name) not in used_sites
                ]
                if not stale:
                    continue
                if literal_lines is None:
                    literal_lines = _string_literal_lines(
                        sources.get(module, "")
                    )
                if lineno in literal_lines:
                    continue
                for name in stale:
                    report.findings.append(
                        Finding(
                            rule="stale-suppression",
                            path=module,
                            line=lineno,
                            message="flow-ok suppression of %r is stale: "
                                    "the rule no longer fires here" % name,
                        )
                    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def analyze_paths(
    paths: list[str], rules: list[str] | None = None
) -> FlowReport:
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            sources[file_path] = handle.read()
    return analyze_sources(sources, rules)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.flow",
        description="reproflow: interprocedural effect & protocol analyzer",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as a JSON document")
    parser.add_argument("--rule", action="append", dest="rules",
                        help="run only the named rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list protocol rules and exit")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in (*ALL_RULES, "suppression-justification",
                     "stale-suppression"):
            print("%-24s %s" % (name, RULE_DESCRIPTIONS[name]))
        return 0

    report = analyze_paths(args.paths, args.rules)
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        shown = report.findings if args.show_suppressed else report.active
        for finding in shown:
            print(finding.render())
        print(
            "reproflow: %d finding(s), %d suppressed"
            % (len(report.active), len(report.suppressed)),
            file=sys.stderr,
        )
    return 1 if report.active else 0
