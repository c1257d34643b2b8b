"""Deterministic JSON run reports.

Reports canonicalize to sorted-key JSON with integer and string leaves
only.  Identical runs (same command, parameters and seed) produce byte
identical files regardless of worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class RunReport:
    command: str
    params: dict
    verdict: str = "pass"              # pass | fail | error
    witnesses: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    seed: int = 0

    def fail(self, *witnesses):
        self.verdict = "fail"
        self.witnesses.extend(witnesses)
        return self

    def error(self, *witnesses):
        self.verdict = "error"
        self.witnesses.extend(witnesses)
        return self

    def canonical_dict(self) -> dict:
        return {
            "command": self.command,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "params": {k: self.params[k] for k in sorted(self.params)},
            "seed": self.seed,
            "verdict": self.verdict,
            "witnesses": sorted(self.witnesses, key=str),
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}.get(self.verdict, 2)


def emit_report(report: RunReport, path=None) -> str:
    """Write (or return) the canonical JSON for a report."""
    text = report.to_json()
    if path is not None:
        with open(path, "w") as out:
            out.write(text)
    return text
