"""``python -m repro.analysis`` — the one-command correctness gate.

Exit codes: 0 = gate passes, 1 = findings, 2 = usage error.

Examples
--------
Lint the library (errors fail, warnings reported)::

    python -m repro.analysis src/repro

The full strict gate (lint + runtime contracts + differential testing;
warnings fail too) — what CI runs::

    python -m repro.analysis --strict src/repro

Only the bitmask rule, as JSON::

    python -m repro.analysis --select RPR002 --format json src/repro

What a rule means and why it exists::

    python -m repro.analysis --explain RPR010

Findings already accepted in ``analysis-baseline.json`` (each with a
written reason) are suppressed automatically; regenerate the file
deliberately with ``--write-baseline`` (or ``make analyze-baseline``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import Baseline, load_baseline, write_baseline
from repro.analysis.contracts import run_contract_checks
from repro.analysis.differential import differential_findings
from repro.analysis.lint import lint_paths
from repro.analysis.report import (
    Finding,
    Severity,
    gate_exit_code,
    render_json,
    render_text,
    summarize,
)
from repro.analysis.rules import ALL_RULES, active_rules

#: Discovered in the working directory unless --baseline/--no-baseline says
#: otherwise, so `make lint` and CI pick the checked-in debt up implicitly.
DEFAULT_BASELINE = "analysis-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Invariant-aware static analysis + correctness gate "
        "for the subset-skyline reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, and run the runtime contract checks "
        "and the differential harness in addition to lint",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--contracts",
        action="store_true",
        help="also run the runtime contract checks (Lemma 5.1, Algorithm 1)",
    )
    parser.add_argument(
        "--differential",
        action="store_true",
        help="also cross-validate every registered algorithm against the "
        "brute-force oracle",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the static lint layer (contracts/differential only)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format: human text, a JSON array (always printed, "
        "even when empty), or GitHub ::error/::warning annotation lines",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's full description and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file of accepted findings "
        f"(default: ./{DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the current findings and exit; "
        "existing reasons are preserved by fingerprint, new entries get a "
        "FIXME placeholder that keeps failing the gate until justified",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in sorted(ALL_RULES, key=lambda r: r.code):
        lines.append(f"{rule.code} [{rule.severity}] {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


def _explain(code: str) -> str | None:
    wanted = code.strip().upper()
    for rule in ALL_RULES:
        if rule.code == wanted:
            lines = [
                f"{rule.code} — {rule.name} ({rule.severity})",
                "",
                rule.description,
            ]
            if rule.allowlist:
                lines += ["", "exempt modules: " + ", ".join(rule.allowlist)]
            if rule.engine_level:
                lines += [
                    "",
                    "implemented by the lint engine itself (runs after all "
                    "selected rules, over the suppression-usage map)",
                ]
            lines += [
                "",
                f"suppress one deliberate site with `# noqa: {rule.code} — reason`",
                "(the reason is mandatory: RPR011 audits every suppression)",
            ]
            return "\n".join(lines)
    return None


def render_github(findings: Iterable[Finding]) -> str:
    """GitHub workflow-command annotations, one line per finding."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    lines = []
    for f in ordered:
        level = "error" if f.severity is Severity.ERROR else "warning"
        location = f"file={f.path}"
        if f.line:
            location += f",line={f.line}"
        # Workflow commands terminate the message at a newline; findings
        # are single-line already, but be safe.
        message = f"{f.rule} {f.message}".replace("\n", " ")
        lines.append(f"::{level} {location}::{message}")
    return "\n".join(lines)


def _resolve_baseline(args: argparse.Namespace) -> Baseline | None:
    if args.no_baseline:
        return None
    if args.baseline:
        path = Path(args.baseline)
        if not path.exists() and not args.write_baseline:
            raise FileNotFoundError(f"baseline file not found: {path}")
        return load_baseline(path) if path.exists() else None
    default = Path(DEFAULT_BASELINE)
    if default.exists():
        return load_baseline(default)
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if args.explain:
        text = _explain(args.explain)
        if text is None:
            parser.error(f"unknown rule code: {args.explain}")
        print(text)
        return 0
    if args.no_baseline and (args.baseline or args.write_baseline):
        parser.error("--no-baseline conflicts with --baseline/--write-baseline")

    select = args.select.split(",") if args.select else None
    findings: list[Finding] = []
    ran: set[str] = set()  # the rules this run ran, for stale baseline entries

    if not args.no_lint:
        try:
            findings += lint_paths(args.paths, select=select, root=Path.cwd())
        except (FileNotFoundError, ValueError) as exc:
            parser.error(str(exc))  # exits 2
        ran.update(rule.code for rule in active_rules(select))

    if args.contracts or args.strict:
        findings += run_contract_checks()
        ran.add("contract")
    if args.differential or args.strict:
        findings += differential_findings()
        ran.add("differential")

    if args.write_baseline:
        path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
        previous = load_baseline(path) if path.exists() else None
        written = write_baseline(path, findings, previous)
        unjustified = sum(
            1 for e in written.entries.values() if not e.justified
        )
        print(
            f"wrote {path}: {len(written.entries)} accepted finding(s), "
            f"{unjustified} still needing a reason",
            file=sys.stderr,
        )
        return 0

    try:
        baseline = _resolve_baseline(args)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    if baseline is not None:
        result = baseline.apply(findings, ran)
        reported = result.reported
        suppressed_count = len(result.suppressed)
    else:
        reported = findings
        suppressed_count = 0

    if args.format == "json":
        print(render_json(reported))
    elif args.format == "github":
        output = render_github(reported)
        if output:
            print(output)
    elif reported:
        print(render_text(reported))
    if args.format != "json":
        tally = f"repro.analysis: {summarize(reported)}"
        if suppressed_count:
            tally += f" ({suppressed_count} baselined)"
        print(tally, file=sys.stderr)
    return gate_exit_code(reported, strict=args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
