"""Deciding I(u; e) = 0: rank verdict, brute-force oracle.

For a linear scheme e = A_u u + A_r r with u, r uniform and independent,
I(u; e) = rank([A_u | A_r]) - rank(A_r) in log-q units (q the symbol
alphabet size), an exact integer.  The sufficient-condition lemma reads as
two rank statements: H(e) <= H(r) becomes rank([A_u|A_r]) <= |r| and
H(r | u, e) = 0 becomes rank(A_r) = |r|.  `rank_leakage` returns the
leakage and both lemma conditions.

How the ranks are found depends on the scheme:

* mbcr-exact and mscr-dk precode with a Gabidulin (linearized) polynomial,
  so each observed symbol is f(h) for a point h in GF(p)^M and the rows of
  [A_r | A_u] are Moore rows of those points.  By the Moore-rank lemma
  (Lidl & Niederreiter, Finite Fields, Lemma 3.51; Gabidulin 1985), the
  Moore matrix of rho GF(p)-independent points has rank min(rho, c) on its
  first c <= M columns.  With rho the GF(p) rank of the point matrix:
  leakage = max(0, rho - |r|), H(e) <= H(r) iff rho <= |r|, and
  H(r | u, e) = 0 iff rho >= |r|.  One small base-field elimination
  decides the verdict.
* mbcr-bivariate, mscr-ia and insecure-demo have no such points; one
  elimination of [A_r | A_u] over the scheme's field gives both ranks
  (`joint_rank_leakage`).  That GF(p^M) elimination still runs on the
  Gabidulin schemes' lazily built Moore rows as an oracle in the tests.

The brute-force oracle never touches the analytic observation matrices: it
probes the encode/repair protocol itself on basis inputs, verifies linearity
on random spot checks, then enumerates every (u, r) assignment and compares
the conditional distributions of e across u values.  Guarded to
|alphabet|^M <= 2^22 joint assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .codes.base import ObservationMatrix, RepairTranscript, Scheme

BRUTE_FORCE_GUARD = 1 << 22


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


def rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank-based verdict.

    With evaluation points (mbcr-exact, mscr-dk) this is the Moore-rank
    lemma on rho, the GF(p) rank of the points: rank([A_u|A_r]) = rho and
    rank(A_r) = min(rho, |r|), so leakage = max(0, rho - |r|).  Otherwise it
    is `joint_rank_leakage`."""
    if obs.points is None:
        return joint_rank_leakage(obs)
    rho, _ = obs.points.rank_profile()
    nr = obs.n_random
    return SecrecyVerdict(
        leakage_qunits=max(0, rho - nr),
        lemma_cond_entropy_ok=rho <= nr,
        lemma_recoverable_ok=rho >= nr,
        method="rank",
    )


def joint_rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank verdict from one elimination of [A_r | A_u] over the scheme's
    field (pivots in the leading |r| columns count rank(A_r)).  For the
    Gabidulin schemes this is the GF(p^M) oracle of `rank_leakage`."""
    joint, pivots = obs.joint().rank_profile()
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
                        transcripts: Sequence[RepairTranscript] = (),
                        guard: int = BRUTE_FORCE_GUARD,
                        spot_checks: int = 8) -> SecrecyVerdict:
    """Exact I(u; e) from the joint distribution over all (u, r) assignments.

    The observation map is obtained by probing the protocol (encode plus
    transcript replay) on basis inputs and verified against `spot_checks`
    random assignments before the vectorized enumeration.
    """
    field = scheme.field
    m_total = scheme.file_size
    ms, nr = scheme.secure_size, scheme.n_random
    order = field.order
    if order ** m_total > guard:
        raise InstanceTooLargeError(
            f"|F|^M = {order}^{m_total} exceeds the 2^22 brute-force guard")
    e1 = tuple(sorted(set(e1)))
    e2 = tuple(sorted(set(e2)))
    plans = _plans(transcripts)

    def observe(u, r):
        return scheme.observed_symbols(u, r, e1, e2, plans)

    zero_u = [field.zero] * ms
    zero_r = [field.zero] * nr
    base_obs = observe(zero_u, zero_r)
    n_obs = len(base_obs)
    if any(v != field.zero for v in base_obs):
        raise ValueError("scheme is not linear: nonzero observation at zero input")

    # probe columns; integer-encode symbols so numpy can enumerate
    def col(vec_u, vec_r):
        return [field.to_int(v) for v in observe(vec_u, vec_r)]

    cols = []
    for i in range(ms):
        u = list(zero_u)
        u[i] = field.one
        cols.append(col(u, zero_r))
    for i in range(nr):
        r = list(zero_r)
        r[i] = field.one
        cols.append(col(zero_u, r))

    # columns of ints -> per-symbol linear map over the canonical int encoding
    # works coordinate-wise only for prime fields; for extension fields fall
    # back to a python enumeration over raw elements
    if field.degree == 1:
        q = order
        a = np.array(cols, dtype=np.int64).T % q  # n_obs x (ms+nr)
        # linearity spot checks against the protocol
        rng = np.random.default_rng(0xB0BA)
        for _ in range(spot_checks):
            u = [int(x) for x in rng.integers(0, q, ms)]
            r = [int(x) for x in rng.integers(0, q, nr)]
            direct = observe(u, r)
            model = (a @ np.array(u + r, dtype=np.int64)) % q
            if [int(x) for x in model] != [field.to_int(v) for v in direct]:
                raise ValueError("scheme is not linear: probe mismatch")
        grids = np.meshgrid(*([np.arange(q, dtype=np.int64)] * m_total), indexing="ij")
        assigns = np.stack([g.reshape(-1) for g in grids], axis=1)  # q^M x M
        del grids
        e_vals = (assigns @ a.T) % q
        if n_obs == 0:
            codes = np.zeros(len(assigns), dtype=np.int64)
        elif q ** n_obs < 2 ** 62:
            weights = np.array([q ** i for i in range(n_obs - 1, -1, -1)], dtype=np.int64)
            codes = e_vals @ weights
        else:  # row codes would overflow int64; fall back to python ints
            weights = [q ** i for i in range(n_obs - 1, -1, -1)]
            codes = np.array([sum(int(v) * w for v, w in zip(row, weights))
                              for row in e_vals], dtype=object)
        codes = codes.reshape(q ** ms, q ** nr)
    else:
        codes_list = []
        elements = list(field.elements())
        from itertools import product
        for u in product(elements, repeat=ms):
            for r in product(elements, repeat=nr):
                e_vec = observe(list(u), list(r))
                code = 0
                for v in e_vec:
                    code = code * order + field.to_int(v)
                codes_list.append(code)
        codes = np.array(codes_list, dtype=object).reshape(order ** ms, order ** nr)

    # conditional distribution of e given u: one row per u assignment
    sorted_rows = np.sort(codes, axis=1)
    identical = bool((sorted_rows == sorted_rows[0]).all())
    # support sizes per u must agree for a linear scheme
    n_e_given_u = {len(np.unique(row)) for row in codes}
    if len(n_e_given_u) != 1:
        raise ValueError("non-uniform conditional supports; scheme not linear?")
    n_cond = n_e_given_u.pop()
    n_e = len(np.unique(codes.reshape(-1)))
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
