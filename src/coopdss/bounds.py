"""Closed-form trade-off points, secure file-size bounds, and the NRBW tables.

All arithmetic is exact-rational (fractions.Fraction); decimals appear only
in table rendering, rounded half-up to four places.

Normalized units fix beta' = 1 at MBCR (beta = 2, alpha = gamma = 2d+t-1,
M = k(2d-k+t)) and beta = beta' = 1 at MSCR (alpha = d-k+t, M = k(d-k+t));
one unit is one field symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class TradeoffPoint:
    """(alpha, beta, beta', gamma, M) of one operating point in normalized
    units, exact rationals."""

    alpha: Fraction
    beta: Fraction
    beta_prime: Fraction
    gamma: Fraction
    file_size: Fraction


def mbcr_point(k: int, d: int, t: int) -> TradeoffPoint:
    """MBCR operating point in normalized units."""
    _check_kdt(k, d, t)
    return TradeoffPoint(alpha=Fraction(2 * d + t - 1), beta=Fraction(2),
                         beta_prime=Fraction(1), gamma=Fraction(2 * d + t - 1),
                         file_size=Fraction(k * (2 * d - k + t)))


def mscr_point(k: int, d: int, t: int) -> TradeoffPoint:
    """MSCR operating point in normalized units."""
    _check_kdt(k, d, t)
    return TradeoffPoint(alpha=Fraction(d - k + t), beta=Fraction(1),
                         beta_prime=Fraction(1), gamma=Fraction(d + t - 1),
                         file_size=Fraction(k * (d - k + t)))


def _check_kdt(k: int, d: int, t: int) -> None:
    if not (1 <= k <= d) or t < 1:
        raise ValueError(f"need 1 <= k <= d and t >= 1, got k={k} d={d} t={t}")


def mbcr_secure_bound(k: int, d: int, t: int, l1: int) -> int:
    """Secrecy-capacity upper bound at the MBCR point, normalized units."""
    if not 0 <= l1 <= k:
        raise ValueError("need 0 <= l1 <= k")
    return (k - l1) * (2 * d + t - k - l1)


def mscr_secure_bound(k: int, d: int, t: int, l1: int, l2: int) -> int:
    """Secure file-size upper bound at the MSCR point, normalized units."""
    if l1 < 0 or l2 < 0 or l1 + l2 > k:
        raise ValueError("need l1, l2 >= 0 and l1 + l2 <= k")
    alpha = d - k + t
    if l2 == 0:
        return (k - l1) * alpha
    return (k - l1 - l2) * (alpha - 1)  # beta = 1 normalized


def mscr_dk_achievable(k: int, t: int, l1: int, l2: int) -> int:
    """Achievable secure size of the d = k construction: (k-l1-l2)[t-l2]+."""
    if l1 < 0 or l2 < 0 or l1 + l2 > k:
        raise ValueError("need l1, l2 >= 0 and l1 + l2 <= k")
    return (k - l1 - l2) * max(0, t - l2)


# ---------------------------------------------------------------------------
# NRBW tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NrbwRow:
    n: int
    k: int
    l1: int
    t: int
    d: int
    beta_over_ms: Fraction
    beta_prime_over_ms: Fraction
    gamma_over_ms: Fraction
    file_size: int
    secure_size: int

    def rendered(self) -> tuple:
        return (self.n, self.k, self.l1, self.t, self.d,
                render4(self.beta_over_ms), render4(self.beta_prime_over_ms),
                render4(self.gamma_over_ms), self.file_size, self.secure_size)


def render4(x: Fraction) -> str:
    """Fixed 4-decimal rendering, round half up (1/6 -> '0.1667')."""
    scaled = x * 10_000
    q, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        q += 1
    return f"{q // 10_000}.{q % 10_000:04d}"


def nrbw_table(max_n: int, constraint: str = "d+t=n") -> list[NrbwRow]:
    """MBCR NRBW rows for 4 <= n <= max_n, 2 <= k < n, d >= k, 0 <= l1 < k.

    constraint selects d + t = n (systems contacting every live node) or
    d + t <= n.  Rows are ordered by (n, k, l1), then d descending, then t
    ascending (the fixed rendering order).
    """
    if max_n < 4:
        raise ValueError("max_n must be at least 4")
    if constraint not in ("d+t=n", "d+t<=n"):
        raise ValueError("constraint must be 'd+t=n' or 'd+t<=n'")
    rows = []
    for n in range(4, max_n + 1):
        for k in range(2, n):
            for l1 in range(0, k):
                for d in range(n - 1, k - 1, -1):
                    ts = [n - d] if constraint == "d+t=n" else list(range(1, n - d + 1))
                    for t in ts:
                        ms = mbcr_secure_bound(k, d, t, l1)
                        if ms <= 0:
                            continue
                        point = mbcr_point(k, d, t)
                        rows.append(NrbwRow(
                            n=n, k=k, l1=l1, t=t, d=d,
                            beta_over_ms=Fraction(point.beta) / ms,
                            beta_prime_over_ms=Fraction(point.beta_prime) / ms,
                            gamma_over_ms=Fraction(point.gamma) / ms,
                            file_size=int(point.file_size), secure_size=ms))
    return rows


CSV_HEADER = "n,k,l,t,d,beta_over_Ms,betap_over_Ms,gamma_over_Ms,M,Ms"


def table_csv(rows: Iterable[NrbwRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(str(v) for v in row.rendered()))
    return "\n".join(lines) + "\n"

