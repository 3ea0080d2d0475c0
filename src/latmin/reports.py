"""The verdict record shared by the inequality checks and the ledger checks.

Tolerance policy: every count and volume is exact, so every quantity is
compared with tol 1e-9, the rounding of its evaluation in IEEE doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

EXACT_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    instance_digest: str
    verdict: str            # "holds" | "violated"


def _report(name: str, lhs: float, rhs: float, digest: str) -> InequalityReport:
    slack = rhs - lhs
    holds = slack >= -EXACT_TOL
    return InequalityReport(name, lhs, rhs, slack, holds, digest,
                            "holds" if holds else "violated")
