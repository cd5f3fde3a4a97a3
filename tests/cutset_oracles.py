"""Mincut reference oracles for the closed-form bounds of `coopdss.bounds`.

The paper derives the secure file-size bounds from information-flow cuts of
the cooperative repair graph.  The program ships only the closed forms; the
cut enumeration, the three eavesdropper cut scenarios, the worst-case
allocation term S and the case-bound dominance sweep live here, to check
those closed forms against.  Arithmetic is exact-rational throughout.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from coopdss.bounds import TradeoffPoint, mbcr_point as _mbcr_point, mbcr_secure_bound


# ---------------------------------------------------------------------------
# the MBCR point for a given file size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledPoint(TradeoffPoint):
    """A trade-off point for a file of M symbols rather than in normalized
    units: every quantity of the point scales linearly with M."""

    normalized: bool = False


def mbcr_point(k: int, d: int, t: int, file_size) -> ScaledPoint:
    """MBCR point for an M-symbol file: alpha = M/k (2d+t-1)/(2d+t-k)."""
    point = _mbcr_point(k, d, t)
    s = Fraction(file_size) / point.file_size
    return ScaledPoint(*(s * getattr(point, f.name) for f in fields(TradeoffPoint)))


# ---------------------------------------------------------------------------
# cut-set bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutConfig:
    """One information-flow cut: group sizes u_i, type-1 counts m_i, and the
    eavesdropper allocation (l1_first[i] on type-1 cuts, l1_second[i] on
    type-2 cuts) for each repair group."""

    u: tuple[int, ...]
    m: tuple[int, ...]
    l1_first: tuple[int, ...]
    l1_second: tuple[int, ...]

    def validate(self, k: int, t: int, l1: int) -> None:
        if sum(self.u) != k or any(not 0 <= ui <= t for ui in self.u):
            raise ValueError("group sizes must lie in [0,t] and sum to k")
        if any(not 0 <= mi <= ui for mi, ui in zip(self.m, self.u)):
            raise ValueError("type-1 counts exceed group sizes")
        if any(a > mi for a, mi in zip(self.l1_first, self.m)):
            raise ValueError("allocation exceeds type-1 nodes")
        if any(b > ui - mi for b, mi, ui in zip(self.l1_second, self.m, self.u)):
            raise ValueError("allocation exceeds type-2 nodes")
        if sum(self.l1_first) + sum(self.l1_second) != l1:
            raise ValueError("allocation must place all l1 eavesdroppers")


def coop_cutset_bound(k: int, d: int, t: int, point: TradeoffPoint,
                      u: Sequence[int]) -> Fraction:
    """Min-cut file-size bound for one choice of DC-contacted group sizes u."""
    if any(not 0 <= ui <= t for ui in u):
        raise ValueError("u entries must lie in [0, t]")
    if sum(u) != k:
        raise ValueError("u must sum to k")
    total = Fraction(0)
    seen = 0
    for ui in u:
        cut = (d - seen) * point.beta + (t - ui) * point.beta_prime
        total += ui * min(point.alpha, cut)
        seen += ui
    return total


def compositions(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """All ordered compositions of k into parts in [1, t]."""
    if k == 0:
        yield ()
        return
    for first in range(1, min(k, t) + 1):
        for rest in compositions(k - first, t):
            yield (first,) + rest


def cutset_value(k: int, d: int, t: int, l1: int, point: TradeoffPoint,
                 config: CutConfig) -> Fraction:
    """Cut value of one fully specified cut configuration."""
    config.validate(k, t, l1)
    total = Fraction(0)
    seen = 0
    for ui, mi, a, b in zip(config.u, config.m, config.l1_first, config.l1_second):
        ci = (d - seen) * point.beta + (t - ui + mi) * point.beta_prime
        total += (mi - a) * point.alpha + (ui - mi - b) * ci
        seen += ui
    return total


def eavesdropper_case_bounds(k: int, d: int, t: int, l1: int,
                             point: TradeoffPoint | None = None):
    """The three cut-scenario bounds (case1, case2 | None, case3 | None).

    case1: one DC-contacted node per group; case2 (t >= k): a single group;
    case3 (t < k): full groups of t plus a remainder group, with the
    eavesdropper allocation maximized (s_max).
    """
    if point is None:
        point = _mbcr_point(k, d, t)
    beta, beta_p = point.beta, point.beta_prime
    case1 = Fraction(k - l1) * (2 * d - k - l1 + 1) / 2 * beta \
        + (k - l1) * (t - 1) * beta_p
    case2 = case3 = None
    if t >= k:
        case2 = (k - l1) * (d * beta + (t - k) * beta_p)
    if t < k:
        b = k - (k // t) * t
        base = beta * (Fraction(k * d) + Fraction((k - b) * (t - k - b), 2)) \
            + beta_p * b * (t - b)
        case3 = base - s_max(k, d, t, l1, point)
    return case1, case2, case3


def s_max(k: int, d: int, t: int, l1: int, point: TradeoffPoint | None = None) -> Fraction:
    """Worst-case eavesdropper allocation term S for the t < k cut scenario.

    Computed both from the two-branch closed form and by exhaustive search
    over allocations; raises if they ever disagree.
    """
    if t >= k:
        raise ValueError("S is defined for t < k")
    if point is None:
        point = _mbcr_point(k, d, t)
    beta, beta_p = point.beta, point.beta_prime
    a = k // t
    b = k - a * t
    if l1 <= a * t:
        at = l1 // t
        closed = beta * l1 * (d - at * t) + Fraction(t * t, 2) * beta * at * (at + 1)
    else:
        closed = beta * l1 * (d - a * t) + Fraction(t * t, 2) * beta * a * (a + 1) \
            + (l1 - a * t) * (t - b) * beta_p
    exhaustive = max(
        sum(alloc[i] * (d - i * t) * beta for i in range(a))
        + alloc[a] * ((d - a * t) * beta + (t - b) * beta_p)
        for alloc in _allocations(a + 1, t, l1)
    )
    if closed != exhaustive:
        raise AssertionError(
            f"S closed form {closed} != exhaustive {exhaustive} at k={k} d={d} t={t} l1={l1}")
    return closed


def _allocations(groups: int, cap: int, total: int) -> Iterator[tuple[int, ...]]:
    for alloc in product(range(min(cap, total) + 1), repeat=groups):
        if sum(alloc) == total:
            yield alloc


def nrbw(k: int, d: int, t: int, l1: int) -> Fraction:
    """Normalized repair bandwidth gamma / Ms at the MBCR point."""
    ms = mbcr_secure_bound(k, d, t, l1)
    if ms <= 0:
        raise ZeroDivisionError("secure file size is zero")
    return Fraction(2 * d + t - 1, ms)


# ---------------------------------------------------------------------------
# case-bound dominance report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceReport:
    checked: int
    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def case_bound_dominance(max_k: int = 6, max_d: int = 8, max_t: int = 6) -> DominanceReport:
    """Verify that the case-1 bound dominates cases 2 and 3 at the MBCR point,
    including the predicted slack identities."""
    checked = 0
    violations = []
    for k in range(1, max_k + 1):
        for d in range(k, max_d + 1):
            for t in range(1, max_t + 1):
                for l1 in range(0, k):
                    case1, case2, case3 = eavesdropper_case_bounds(k, d, t, l1)
                    bound = mbcr_secure_bound(k, d, t, l1)
                    checked += 1
                    if case1 != bound:
                        violations.append((k, d, t, l1, "case1", case1, bound))
                    if case2 is not None:
                        slack = case2 - case1
                        if slack != (k - l1) * l1 or slack < 0:
                            violations.append((k, d, t, l1, "case2", case2, case1))
                    if case3 is not None:
                        a = k // t
                        b = k - a * t
                        bt = l1 - (l1 // t) * t if l1 <= a * t else l1 - a * t
                        expect = bt * (t - bt) if l1 <= a * t else bt * (b - bt)
                        slack = case3 - case1
                        if slack < 0 or slack != expect:
                            violations.append((k, d, t, l1, "case3", case3, case1))
    return DominanceReport(checked=checked, violations=tuple(violations))
