"""Deciding I(u; e) = 0: rank verdict, brute-force oracle.

For a linear scheme e = A_u u + A_r r with u, r uniform and independent,
I(u; e) = rank([A_u | A_r]) - rank(A_r) in log-q units (q the symbol
alphabet size), an exact integer.  The sufficient-condition lemma reads as
two rank statements: H(e) <= H(r) becomes rank([A_u|A_r]) <= |r| and
H(r | u, e) = 0 becomes rank(A_r) = |r|.  `rank_leakage` returns the
leakage and both lemma conditions.

Every view (`ObservationMatrix`) holds one GF(p) matrix, one row of M
ints per observed symbol, and |r|; how the ranks are found depends on the
scheme, and `rank_leakage` picks the rule by the view's type:

* mbcr-exact and mscr-dk precode with a Gabidulin (linearized) polynomial,
  so each observed symbol is f(h) for a point h in GF(p)^M and the rows of
  [A_r | A_u] are Moore rows of those points.  By the Moore-rank lemma
  (Lidl & Niederreiter, Finite Fields, Lemma 3.51; Gabidulin 1985), the
  Moore matrix of rho GF(p)-independent points has rank min(rho, c) on its
  first c <= M columns.  With rho the GF(p) rank of the point matrix:
  leakage = max(0, rho - |r|), H(e) <= H(r) iff rho <= |r|, and
  H(r | u, e) = 0 iff rho >= |r|.  One small base-field elimination
  decides the verdict, so their view (`PointObservation`) holds the points
  as its matrix.
* mbcr-bivariate, mscr-ia and insecure-demo have no such points; their
  matrix is [A_r | A_u] itself, a row over (r || u) per symbol, and one
  elimination of it gives both ranks (`joint_rank_leakage`).  The tests'
  GF(p^M) oracle for the Gabidulin schemes builds the Moore rows of the
  points and runs the same elimination on them.

The brute-force oracle never touches the analytic observation matrices: it
probes the encode/repair protocol itself, verifies linearity on random spot
checks, then enumerates every (u, r) assignment and compares the
conditional distributions of e across u values.  Every scheme is GF(p)-linear
on coordinates, so one path serves every field GF(p^m): each input slot is
probed with each coordinate unit, giving a GF(p) map from the M*m input
digits to the n_obs*m observed coordinates.  The enumeration never builds
the assignment grid.  Each observed coordinate is built over all p^(M*m)
assignments in mixed radix, u digits major, and folded into one int64 code
per assignment (relabelled densely before it could overflow).  After one
sort per u row, the support of e given u is that row's count of distinct
codes.  Guarded to |alphabet|^M <= 2^22 joint assignments; the leakage is
in log-|alphabet| units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes.base import ObservationMatrix, PointObservation, RepairTranscript, Scheme
from .field import Matrix

BRUTE_FORCE_GUARD = 1 << 22  # joint (u, r) assignments the oracle may enumerate
SPOT_CHECKS = 8  # random inputs the probed map must reproduce before enumerating
_CODE_LIMIT = 1 << 62  # codes stay below this, clear of int64 overflow


class InstanceTooLargeError(ValueError):
    """Joint enumeration would exceed the brute-force guard."""


@dataclass(frozen=True)
class SecrecyVerdict:
    """leakage in integer log-q units plus the two lemma conditions."""

    leakage_qunits: int
    lemma_cond_entropy_ok: bool   # H(e) <= H(r)
    lemma_recoverable_ok: bool    # H(r | u, e) = 0
    method: str                   # "rank" or "bruteforce"

    @property
    def secure(self) -> bool:
        return self.leakage_qunits == 0


def _distinct_rows(matrix: Matrix) -> Matrix:
    """`matrix` with its repeated rows dropped, first occurrences kept in
    order, when it has more than twice as many rows as columns; otherwise
    `matrix` itself.

    A repeated row (one evaluation point observed twice, as lifetimes do)
    changes neither the row space nor, hence, the rank or the pivot columns
    of the echelon form.  A lifetime view observes the same points round
    after round, so it is tall and mostly repeats (the benchmark's have 3 to
    6 times more rows than columns, and two thirds or more of the rows are
    repeats).  A one-round view has at most about as many rows as columns
    and seldom a repeat, so there the scan would cost more than it saves
    (7 us on a 40 x 30 point view with no repeat, whose verdict takes 90)."""
    if matrix.nrows <= 2 * matrix.ncols:
        return matrix
    distinct = dict.fromkeys(map(tuple, matrix.rows))
    if len(distinct) == matrix.nrows:
        return matrix
    return Matrix(matrix.field, distinct, ncols=matrix.ncols)


def rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank-based verdict.

    With evaluation points (mbcr-exact, mscr-dk) this is the Moore-rank
    lemma on rho, the GF(p) rank of the points: rank([A_u|A_r]) = rho and
    rank(A_r) = min(rho, |r|), so leakage = max(0, rho - |r|).  Otherwise it
    is `joint_rank_leakage`.  Either way a tall view is eliminated on its
    distinct rows (`_distinct_rows`)."""
    if not isinstance(obs, PointObservation):
        return joint_rank_leakage(obs)
    rho, _ = _distinct_rows(obs.matrix).rank_profile()
    nr = obs.n_random
    return SecrecyVerdict(
        leakage_qunits=max(0, rho - nr),
        lemma_cond_entropy_ok=rho <= nr,
        lemma_recoverable_ok=rho >= nr,
        method="rank",
    )


def joint_rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank verdict from one elimination of [A_r | A_u] over the view's
    field (pivots in the leading |r| columns count rank(A_r)), of its
    distinct rows when it is a tall view (`_distinct_rows`).
    A `PointObservation` holds points, not [A_r | A_u], and is refused."""
    if isinstance(obs, PointObservation):
        raise TypeError("a PointObservation holds evaluation points; use rank_leakage")
    joint, pivots = _distinct_rows(obs.matrix).rank_profile()
    rank_r = sum(1 for c in pivots if c < obs.n_random)
    return SecrecyVerdict(
        leakage_qunits=joint - rank_r,
        lemma_cond_entropy_ok=joint <= obs.n_random,
        lemma_recoverable_ok=rank_r == obs.n_random,
        method="rank",
    )


def _plans(transcripts: Sequence[RepairTranscript]):
    return [(tr.failed, tr.helpers) for tr in transcripts]


def brute_force_leakage(scheme: Scheme, e1: Iterable[int], e2: Iterable[int],
                        transcripts: Sequence[RepairTranscript] = ()) -> SecrecyVerdict:
    """Exact I(u; e) from the joint distribution over all (u, r) assignments.

    The observation map is obtained as a GF(p) map on coordinates by probing
    the protocol (encode plus transcript replay) on unit inputs, and is
    verified against `SPOT_CHECKS` random inputs before the enumeration.
    Raises `InstanceTooLargeError` past `BRUTE_FORCE_GUARD` assignments.
    """
    field = scheme.field
    ms, nr = scheme.secure_size, scheme.n_random
    order = field.order
    if order ** scheme.file_size > BRUTE_FORCE_GUARD:
        raise InstanceTooLargeError(
            f"|F|^M = {order}^{scheme.file_size} exceeds the "
            f"2^{BRUTE_FORCE_GUARD.bit_length() - 1} brute-force guard")
    # only this oracle needs numpy: imported here, encode, reconstruct and
    # repair (CLI and simulator alike) never load it
    import numpy as np

    p, m = field.char, field.degree
    n_digits = (ms + nr) * m
    e1 = tuple(sorted(set(e1)))
    e2 = tuple(sorted(set(e2)))
    plans = _plans(transcripts)

    def observe(x):
        """Observed coordinates for the input whose u then r slots hold the
        base digits x, m per slot."""
        slots = [field.from_coords(x[i:i + m]) for i in range(0, n_digits, m)]
        symbols = scheme.observed_symbols(slots[:ms], slots[ms:], e1, e2, plans)
        return [c for v in symbols for c in field.coords(v)]

    if any(observe([0] * n_digits)):
        raise ValueError("scheme is not linear: nonzero observation at zero input")
    # column j is the observation at the j-th unit digit
    a = np.array([observe([int(i == j) for i in range(n_digits)])
                  for j in range(n_digits)], dtype=np.int64).T
    rng = np.random.default_rng(0xB0BA)
    for _ in range(SPOT_CHECKS):
        x = [int(v) for v in rng.integers(0, p, n_digits)]
        if [int(v) for v in (a @ np.array(x, dtype=np.int64)) % p] != observe(x):
            raise ValueError("scheme is not linear: probe mismatch")

    # e over every assignment in mixed radix, first digit most significant
    # (so u is major), folded row by row into one code per assignment
    digits = np.arange(p, dtype=np.int64)
    codes = np.zeros(p ** n_digits, dtype=np.int64)
    span = 1  # every code lies in [0, span)
    for row in a:
        e = np.zeros(1, dtype=np.int64)
        for coef in row:
            e = (e[:, None] + int(coef) * digits).reshape(-1)
        e %= p
        if span > _CODE_LIMIT // p:  # relabel densely before int64 overflows
            distinct, codes = np.unique(codes, return_inverse=True)
            span = len(distinct)
        codes *= p
        codes += e
        span *= p

    # conditional distribution of e given u: one sorted row per u assignment
    codes = codes.reshape(order ** ms, order ** nr)
    codes.sort(axis=1)
    identical = bool((codes == codes[0]).all())
    # support sizes per u must agree for a linear scheme
    supports = (codes[:, 1:] != codes[:, :-1]).sum(axis=1) + 1
    n_cond = int(supports[0])
    if (supports != n_cond).any():
        raise ValueError("non-uniform conditional supports; scheme not linear?")
    flat = codes.reshape(-1)  # a view: the rows are no longer needed
    flat.sort()
    n_e = int((flat[1:] != flat[:-1]).sum()) + 1
    leakage = _exact_log(order, n_e // n_cond) if n_e % n_cond == 0 else None
    if leakage is None:
        raise ValueError("support ratio is not a power of the alphabet size")
    if identical and leakage != 0:
        raise AssertionError("identical conditionals but nonzero support ratio")
    # H(r | u, e) = 0  <=>  every (u, e) pair pins a unique r
    recoverable = n_cond == codes.shape[1]
    cond_entropy_ok = n_e <= order ** nr
    return SecrecyVerdict(
        leakage_qunits=leakage,
        lemma_cond_entropy_ok=cond_entropy_ok,
        lemma_recoverable_ok=recoverable,
        method="bruteforce",
    )


def _exact_log(base: int, value: int) -> int | None:
    if value < 1:
        return None
    out = 0
    while value > 1:
        if value % base:
            return None
        value //= base
        out += 1
    return out
