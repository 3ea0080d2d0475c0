"""The verdict record shared by the inequality checks and the ledger checks.

Tolerance policy: every count and volume is exact, so every quantity is
compared with tol 1e-9, the rounding of its evaluation in IEEE doubles.
"""

from __future__ import annotations

from .record import record

EXACT_TOL = 1e-9


@record
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    instance_digest: str
    verdict: str            # "holds" | "violated"

    def json_text(self) -> str:
        """cli.encode(self) for float lhs, rhs and slack, and a name and a
        digest that need no escape."""
        return ('{"holds":%s,"instance_digest":"%s","lhs":"%.12g","name":"%s",'
                '"rhs":"%.12g","slack":"%.12g","verdict":"%s"}'
                % ("true" if self.holds else "false", self.instance_digest,
                   self.lhs, self.name, self.rhs, self.slack, self.verdict))


def _report(name: str, lhs: float, rhs: float, digest: str) -> InequalityReport:
    slack = rhs - lhs
    holds = slack >= -EXACT_TOL
    return InequalityReport(name, lhs, rhs, slack, holds, digest,
                            "holds" if holds else "violated")

