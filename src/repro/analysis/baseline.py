"""Fingerprinted finding baseline: pre-existing debt, tracked explicitly.

When a new rule lands it may fire on code that predates it.  Rather than
blanket-suppressing (or blocking the rule on a full cleanup), accepted
findings are recorded in ``analysis-baseline.json`` with a *reason* each,
and the gate fails only on findings **not** in the baseline — new debt is
impossible to add silently, old debt stays visible and justified.

Fingerprints are content-addressed, not line-addressed: the SHA-1 of
``rule | path | normalized offending line | occurrence index`` survives
unrelated edits that shift line numbers, and the occurrence index keeps
two identical offending lines in one file distinct.  Renaming a file or
editing the offending line itself invalidates the fingerprint on purpose
— the code changed, so the justification must be re-earned.

Baseline entries are *demanding*:

- an entry whose ``reason`` is empty or still the ``FIXME`` placeholder
  does not suppress its finding (the finding is reported with a pointer
  to the baseline file) — regenerating the baseline is never enough, a
  human has to write down why the debt is acceptable;
- an entry that no longer matches any finding of a run that ran its rule
  is *stale* and reported as a warning (so ``--strict`` fails until
  ``make analyze-baseline`` prunes it); a run that skipped the rule
  (``--no-lint``, or ``--select`` without it) cannot tell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.report import Finding, Severity

__all__ = [
    "BaselineEntry",
    "Baseline",
    "BaselineResult",
    "fingerprint_findings",
    "load_baseline",
    "write_baseline",
    "UNJUSTIFIED_PLACEHOLDER",
]

#: Reason new entries get on ``--write-baseline``; fails the gate until a
#: human replaces it.
UNJUSTIFIED_PLACEHOLDER = "FIXME: justify this accepted finding"

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: fingerprint, locator context and the reason."""

    fingerprint: str
    rule: str
    path: str
    snippet: str
    reason: str

    @property
    def justified(self) -> bool:
        reason = self.reason.strip()
        return bool(reason) and not reason.upper().startswith("FIXME")


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of applying a baseline to a finding set.

    ``reported`` is what the gate should act on: genuinely new findings,
    findings matched only by unjustified entries (annotated), and one
    warning per stale entry.
    """

    new: tuple[Finding, ...]
    suppressed: tuple[tuple[Finding, BaselineEntry], ...]
    unjustified: tuple[Finding, ...]
    stale: tuple[BaselineEntry, ...]

    @property
    def reported(self) -> list[Finding]:
        out = list(self.new) + list(self.unjustified)
        for entry in self.stale:
            out.append(
                Finding(
                    rule="RPR011",
                    path=entry.path,
                    line=0,
                    message=(
                        f"stale baseline entry {entry.fingerprint} ({entry.rule}) "
                        "no longer matches any finding — prune it with "
                        "`make analyze-baseline`"
                    ),
                    severity=Severity.WARNING,
                    snippet=entry.snippet,
                )
            )
        return out


def _normalize(snippet: str) -> str:
    return " ".join(snippet.split())


def fingerprint_findings(
    findings: Iterable[Finding],
) -> list[tuple[Finding, str]]:
    """Pair each finding with its content-addressed fingerprint.

    The occurrence index is assigned in (path, line, rule) order, so two
    identical offending lines fingerprint differently but stably.
    """
    counts: dict[tuple[str, str, str], int] = {}
    out: list[tuple[Finding, str]] = []
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    for finding in ordered:
        normalized = _normalize(finding.snippet)
        key = (finding.rule, finding.path, normalized)
        index = counts.get(key, 0)
        counts[key] = index + 1
        digest = hashlib.sha1(
            f"{finding.rule}|{finding.path}|{normalized}|{index}".encode("utf-8")
        ).hexdigest()[:16]
        out.append((finding, digest))
    return out


@dataclass(frozen=True)
class Baseline:
    """A loaded baseline file: fingerprint → entry."""

    entries: dict[str, BaselineEntry]
    path: Path | None = None

    def apply(
        self, findings: Sequence[Finding], ran: Iterable[str] | None = None
    ) -> BaselineResult:
        """Split ``findings`` into new / suppressed / unjustified + stale.

        ``ran`` names the rules whose findings ``findings`` holds (default:
        every rule); only an unmatched entry of one of them is stale.
        """
        new: list[Finding] = []
        suppressed: list[tuple[Finding, BaselineEntry]] = []
        unjustified: list[Finding] = []
        matched: set[str] = set()
        for finding, digest in fingerprint_findings(findings):
            entry = self.entries.get(digest)
            if entry is None:
                new.append(finding)
                continue
            matched.add(digest)
            if entry.justified:
                suppressed.append((finding, entry))
            else:
                unjustified.append(
                    Finding(
                        rule=finding.rule,
                        path=finding.path,
                        line=finding.line,
                        message=finding.message
                        + f" [baselined as {digest} without justification — "
                        "write a reason in the baseline file]",
                        severity=finding.severity,
                        snippet=finding.snippet,
                    )
                )
        ran_rules = None if ran is None else set(ran)
        stale = tuple(
            entry
            for digest, entry in sorted(self.entries.items())
            if digest not in matched and (ran_rules is None or entry.rule in ran_rules)
        )
        return BaselineResult(
            new=tuple(new),
            suppressed=tuple(suppressed),
            unjustified=tuple(unjustified),
            stale=stale,
        )


def load_baseline(path: Path) -> Baseline:
    """Load ``path`` as a :class:`Baseline` (``ValueError`` on bad shape)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: expected a baseline object with version {_FORMAT_VERSION}"
        )
    entries: dict[str, BaselineEntry] = {}
    for raw in payload.get("entries", []):
        entry = BaselineEntry(
            fingerprint=str(raw["fingerprint"]),
            rule=str(raw["rule"]),
            path=str(raw["path"]),
            snippet=str(raw.get("snippet", "")),
            reason=str(raw.get("reason", "")),
        )
        entries[entry.fingerprint] = entry
    return Baseline(entries=entries, path=path)


def write_baseline(
    path: Path,
    findings: Sequence[Finding],
    previous: Baseline | None = None,
) -> Baseline:
    """Write a baseline accepting exactly ``findings``.

    Reasons survive regeneration by fingerprint: an entry whose code did
    not change keeps its justification, a genuinely new entry gets the
    ``FIXME`` placeholder (which keeps failing the gate until replaced).
    """
    old = previous.entries if previous is not None else {}
    entries = []
    for finding, digest in fingerprint_findings(findings):
        kept = old.get(digest)
        entries.append(
            BaselineEntry(
                fingerprint=digest,
                rule=finding.rule,
                path=finding.path,
                snippet=_normalize(finding.snippet),
                reason=kept.reason if kept is not None else UNJUSTIFIED_PLACEHOLDER,
            )
        )
    entries.sort(key=lambda e: (e.path, e.rule, e.fingerprint))
    payload = {
        "version": _FORMAT_VERSION,
        "entries": [
            {
                "fingerprint": e.fingerprint,
                "rule": e.rule,
                "path": e.path,
                "snippet": e.snippet,
                "reason": e.reason,
            }
            for e in entries
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return Baseline(entries={e.fingerprint: e for e in entries}, path=path)
