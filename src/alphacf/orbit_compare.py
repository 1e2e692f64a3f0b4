"""Matched nearest-integer vs alpha expansions and their ladder identities.

Reads the 1/2- and alpha-expansions of one starting point, with their
signed convergents, from ``cf_core.expand`` and ``convergents``.  Labels
every index by whether the two orbit states coincide, are exact mirror
images (x' = 1 - x), or sit inside a Moebius bridge between those events,
and classifies the convergent-denominator differences.  Valid for alpha up
to the golden constant g; beyond g the map grows an extra branch and the
matching breaks down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from .cf_core import Alpha, convergents, expand
from .errors import OutOfDomain, OutOfRange
from .numkit import GOLDEN, BallFloat, ExactNumber, format_exact

_HALF = Fraction(1, 2)


@dataclass
class TraceStep:
    """One synchronized step of the matched expansions."""

    j: int
    digit_half: tuple  # (a, eps)
    digit_alpha: tuple
    x_half: ExactNumber
    x_alpha: ExactNumber
    q_half: int
    q_alpha: int
    event: str  # coincide | reflected | drift

    def to_json(self) -> str:
        return json.dumps(
            {
                "j": self.j,
                "digit_half": list(self.digit_half),
                "digit_alpha": list(self.digit_alpha),
                "x_half": format_exact(self.x_half),
                "x_alpha": format_exact(self.x_alpha),
                "q_half": self.q_half,
                "q_alpha": self.q_alpha,
                "event": self.event,
            },
            sort_keys=True,
        )


@dataclass
class MatchedTrace:
    x: ExactNumber
    alpha: Alpha
    steps: list = field(default_factory=list)

    def dump_jsonl(self) -> str:
        return "\n".join(step.to_json() for step in self.steps)


def _classify_state(xh, xa) -> str:
    if xh == xa:
        return "coincide"
    if xh == 1 - xa:
        return "reflected"
    return "drift"


def matched_orbits(x: ExactNumber, alpha: Alpha, N: int) -> MatchedTrace:
    """Run the 1/2- and alpha-expansions of an exact x in [0, 1/2] side by side.

    Steps are recorded while both orbits are alive, at most N of them.  A
    ball is refused, as no ball certifies two equal states equal.
    """
    if alpha.value > GOLDEN:
        raise OutOfRange("matched orbits need alpha <= (sqrt(5)-1)/2")
    if N < 1:
        raise OutOfDomain("N must be >= 1")
    if isinstance(x, BallFloat):
        raise OutOfDomain("matched orbits need an exact x, not a ball")
    if x < 0 or x > _HALF:
        raise OutOfDomain("matched orbits start from x in [0, 1/2]")
    eh = expand(x, Alpha.half(), N)
    ea = expand(x, alpha, N)
    n = min(eh.depth(N), ea.depth(N))
    ch, ca = convergents(eh, n), convergents(ea, n)
    trace = MatchedTrace(x=x, alpha=alpha)
    for j in range(1, n + 1):
        xh, xa = eh.orbit_at(j), ea.orbit_at(j)
        trace.steps.append(TraceStep(j=j, digit_half=eh.digit_at(j),
                                     digit_alpha=ea.digit_at(j), x_half=xh,
                                     x_alpha=xa, q_half=ch.q_of(j),
                                     q_alpha=ca.q_of(j),
                                     event=_classify_state(xh, xa)))
    return trace


@dataclass
class ClassifyResult:
    violations: list  # human-readable violation records
    max_q_ratio: Fraction  # max over j of q^(1/2)/q^(alpha), 1 if no steps

    @property
    def ok(self) -> bool:
        return not self.violations


def q_difference_classify(trace: MatchedTrace) -> ClassifyResult:
    """Check q_j^(1/2) - q_j^(alpha) in {0, q_{j-1}^(1/2)} along the trace.

    Also checks the follow-up digit rule (a nonzero difference forces the
    next 1/2-digit to be (3,-1) or (2,+1)) and the log 2 bound on
    |log q_j^(1/2) - log q_j^(alpha)|, all in exact integer arithmetic.
    """
    violations = []
    best_num, best_den = 1, 1  # running max of q_half/q_alpha
    q_half_prev = 1  # q_0
    for idx, step in enumerate(trace.steps):
        diff = step.q_half - step.q_alpha
        if diff == q_half_prev:  # q_half_prev >= 1, so diff != 0 here
            if idx + 1 < len(trace.steps):
                nxt = trace.steps[idx + 1].digit_half
                if nxt not in ((3, -1), (2, 1)):
                    violations.append(
                        f"j={step.j}: follow-up digit {nxt} after q_prev"
                    )
        elif diff:
            violations.append(
                f"j={step.j}: q difference {diff} not in {{0, {q_half_prev}}}"
            )
        # exact log-gap check: q_half <= 2 q_alpha and q_alpha <= q_half
        if step.q_half > 2 * step.q_alpha:
            violations.append(
                f"j={step.j}: log gap exceeds log 2 "
                f"({step.q_half} vs {step.q_alpha})"
            )
        if step.q_alpha > step.q_half:
            violations.append(
                f"j={step.j}: alpha denominator exceeds 1/2 denominator"
            )
        if step.q_half * best_den > best_num * step.q_alpha:
            best_num, best_den = step.q_half, step.q_alpha
        q_half_prev = step.q_half
    return ClassifyResult(violations=violations,
                          max_q_ratio=Fraction(best_num, best_den))


@dataclass
class LadderPoint:
    """Step of the two rational ladders closing in on 1 - g."""

    index: int
    t: Fraction
    r: int
    s: int

    @property
    def rs(self) -> Fraction:
        return Fraction(self.r, self.s)


def ladder(i: int) -> LadderPoint:
    """i-th ladder point: t_i = 1/(3 - t_{i-1}) from 1/2, r_i/s_i from 0.

    t_i decreases to 1 - g, r_i/s_i increases to 1 - g, and the two are
    linked by 2 - 1/(1 - t_i) = r_i/s_i.
    """
    if i < 0:
        raise OutOfDomain("ladder index must be >= 0")
    t = Fraction(1, 2)
    r, s = 0, 1
    for _ in range(i):
        t = 1 / (3 - t)
        r, s = s, 3 * s - r
    return LadderPoint(index=i, t=t, r=r, s=s)
