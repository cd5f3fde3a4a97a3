"""Deciding I(u; e) = 0: rank verdict, brute-force oracle.

For a linear scheme e = A_u u + A_r r with u, r uniform and independent,
I(u; e) = rank([A_u | A_r]) - rank(A_r) in log-q units (q the symbol
alphabet size), an exact integer.  The sufficient-condition lemma reads as
two rank statements: H(e) <= H(r) becomes rank([A_u|A_r]) <= |r| and
H(r | u, e) = 0 becomes rank(A_r) = |r|.  `rank_leakage` returns the
leakage and both lemma conditions.

Every view (`ObservationMatrix`) holds one GF(p) matrix, one row of M
ints per observed symbol, and |r|.  The row tables keep each row also
packed into one int (`field.pack_rows`), and the verdict eliminates the
view's packed rows, the tables' own ints, through a `Matrix` that neither
copies nor packs them (`Matrix._of`, walked by `Matrix._walk`).  A view
with more than twice as many rows as columns (a lifetime's, which observes
the same points round after round) has its repeated rows dropped first
(`_distinct_rows`); a shorter one is eliminated whole.  How the ranks are
found depends on the scheme, and `rank_leakage` picks the rule by the
view's type:

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
  elimination of it gives both ranks (`joint_rank_leakage`, which refuses
  a `PointObservation`).  The tests' GF(p^M) oracle for the Gabidulin
  schemes builds the Moore rows of the points and runs `joint_rank_leakage`
  on them, through the per-entry GF(p^m) elimination.

The brute-force oracle never touches the analytic observation matrices: it
probes the encode/repair protocol itself, verifies linearity on random spot
checks, then counts cosets.  Every scheme is GF(p)-linear on coordinates, so
one path serves every field GF(p^m): each input slot is probed with each
coordinate unit, giving a GF(p) map from the M*m input digits to the
n_obs*m observed coordinates.  For a linear map the views S_u = A_u u + S_0
are cosets of the subgroup S_0 = {A_r r}, so by Lagrange's theorem the
support of e given u has |S_0| elements for every u, and e takes
|S_0| |alphabet|^|u| / |U_0| values, with U_0 = {u : A_u u in S_0}.  The
oracle therefore enumerates the u assignments (r = 0) and the r
assignments (u = 0) apart, |alphabet|^|u| + |alphabet|^|r| vectors rather
than their |alphabet|^M products, and reads
leakage = log(|alphabet|^|u| / |U_0|).  Both parts fold the same
coordinate rows into one code array, so two codes are equal exactly when
their vectors are.  Coordinate rows that are zero or repeat
an earlier row split no vectors and are skipped (by equality alone: the
oracle eliminates nothing).  Each remaining coordinate is built in place in
mixed radix (uint8, uint16 once 2(p-1) > 255) and folded into the codes,
kept in the narrowest unsigned type that holds the codes' span; only when a
fold would take the span past 2^32 are the codes relabelled densely, from a
sorted copy and `searchsorted` in blocks.  On mscr-ia (5,2,3,2) that is
11^3 + 11^3 codes and about 40 kB per call in place of 11^6 codes and
7.1 MB.  The full joint enumeration, one int64 code per (u, r) assignment,
is the tests' oracle for this one (`tests/oracles.brute_force_int64`).
Guarded to |alphabet|^M <= 2^22 joint assignments; the leakage is in
log-|alphabet| units.  The oracle is the only numpy user and imports it on
its first call, so encode, reconstruct and repair never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes.base import ObservationMatrix, PointObservation, RepairTranscript, Scheme, _record
from .field import Matrix

BRUTE_FORCE_GUARD = 1 << 22  # joint (u, r) assignments the oracle may enumerate
SPOT_CHECKS = 8  # random inputs the probed map must reproduce before enumerating
_RELABEL_SPAN = 1 << 32  # the oracle's codes are relabelled before passing this span
_RELABEL_BLOCK = 1 << 16  # codes mapped back per searchsorted call while relabelling


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


def _distinct_rows(obs: ObservationMatrix) -> Matrix:
    """The view's packed rows (its rows over GF(p^m)) as a `Matrix` over
    them, with no copy (`Matrix._of`), its repeated rows dropped, first
    occurrences kept in order, when it has more than twice as many rows as
    columns.  Packing is one-to-one on reduced rows, so the packed ints
    repeat exactly where the rows do.

    A repeated row (one evaluation point observed twice, as lifetimes do)
    changes neither the row space nor, hence, the rank or the pivot columns
    of the echelon form.  A lifetime view observes the same points round
    after round, so it is tall and mostly repeats (the benchmark's have 3 to
    6 times more rows than columns, and two thirds or more of the rows are
    repeats).  A one-round view has at most about as many rows as columns
    and seldom a repeat, so there the scan would cost more than it saves
    (3 us on a 40 x 30 point view with no repeat, whose elimination takes
    45, at the benchmark's reference speed).  On the benchmark's lifetime
    views the scan still cuts the elimination to a third or less."""
    rows = obs.rows if obs.packed is None else obs.packed
    if len(rows) > 2 * obs.ncols:
        distinct = dict.fromkeys(rows)
        if len(distinct) < len(rows):
            rows = list(distinct)
    return Matrix._of(obs.field, rows, obs.ncols)


def rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank-based verdict.

    With evaluation points (mbcr-exact, mscr-dk) this is the Moore-rank
    lemma on rho, the GF(p) rank of the points: rank([A_u|A_r]) = rho and
    rank(A_r) = min(rho, |r|), so leakage = max(0, rho - |r|).  Otherwise it
    is `joint_rank_leakage`.  Either way a tall view is eliminated on its
    distinct rows (`_distinct_rows`)."""
    if not isinstance(obs, PointObservation):
        return joint_rank_leakage(obs)
    rho, _ = _distinct_rows(obs).rank_profile()
    nr = obs.n_random
    return _record(SecrecyVerdict, leakage_qunits=max(0, rho - nr),
                   lemma_cond_entropy_ok=rho <= nr, lemma_recoverable_ok=rho >= nr,
                   method="rank")


def joint_rank_leakage(obs: ObservationMatrix) -> SecrecyVerdict:
    """Rank verdict from one elimination of [A_r | A_u] over the view's
    field (pivots in the leading |r| columns count rank(A_r)), of its
    distinct rows when it is a tall view (`_distinct_rows`).
    A `PointObservation` holds points, not [A_r | A_u], and is refused."""
    if isinstance(obs, PointObservation):
        raise TypeError("a PointObservation holds evaluation points; use rank_leakage")
    joint, pivots = _distinct_rows(obs).rank_profile()
    rank_r = sum(1 for c in pivots if c < obs.n_random)
    return _record(SecrecyVerdict, leakage_qunits=joint - rank_r,
                   lemma_cond_entropy_ok=joint <= obs.n_random,
                   lemma_recoverable_ok=rank_r == obs.n_random, method="rank")


def _plans(transcripts: Sequence[RepairTranscript]):
    return [(tr.failed, tr.helpers) for tr in transcripts]


def brute_force_leakage(scheme: Scheme, e1: Iterable[int], e2: Iterable[int],
                        transcripts: Sequence[RepairTranscript] = ()) -> SecrecyVerdict:
    """Exact I(u; e) by counting the cosets of the probed linear map.

    The eavesdropped ids are validated first, as `observation_matrix` does.
    The observation map is obtained as a GF(p) map on coordinates by probing
    the protocol (encode plus transcript replay) on unit inputs, and is
    verified against `SPOT_CHECKS` random inputs before the enumeration
    (`_probed_map`).  Every u (with r = 0) and every r (with u = 0) then
    gets one code, equal only for equal vectors (`_assignment_codes`), in
    the narrowest unsigned type: |alphabet|^|u| + |alphabet|^|r| codes.
    With S_0 the distinct r codes and U_0 the u whose code lies in S_0:
    n_cond = |S_0| values of e for each u, n_e = |S_0| |alphabet|^|u| / |U_0|
    values of e in all, leakage = log(|alphabet|^|u| / |U_0|),
    H(r | u, e) = 0 iff n_cond = |alphabet|^|r|, and H(e) <= H(r) iff
    n_e <= |alphabet|^|r|.
    Raises `InstanceTooLargeError` past `BRUTE_FORCE_GUARD` assignments.
    """
    field = scheme.field
    ms, nr = scheme.secure_size, scheme.n_random
    order = field.order
    if order ** scheme.file_size > BRUTE_FORCE_GUARD:
        raise InstanceTooLargeError(
            f"|F|^M = {order}^{scheme.file_size} exceeds the "
            f"2^{BRUTE_FORCE_GUARD.bit_length() - 1} brute-force guard")
    transcripts = tuple(transcripts)  # validated, then replayed
    if isinstance(scheme, Scheme):  # the tests' toy maps have no node ids
        e1, e2 = scheme._validate_eaves(e1, e2, transcripts)
    import numpy as np

    m = field.degree
    codes = _assignment_codes(_probed_map(scheme, e1, e2, transcripts), field.char,
                              (ms * m, nr * m))
    n_u = order ** ms
    subgroup = np.unique(codes[n_u:])  # S_0 = {A_r r}, one code per vector
    n_cond = len(subgroup)  # every view set S_u is a coset of S_0
    kernel = int(np.isin(codes[:n_u], subgroup).sum())  # |U_0|
    leakage = _exact_log(order, n_u // kernel) if n_u % kernel == 0 else None
    if leakage is None:
        raise ValueError("support ratio is not a power of the alphabet size")
    n_e = n_cond * (n_u // kernel)
    return SecrecyVerdict(
        leakage_qunits=leakage,
        lemma_cond_entropy_ok=n_e <= order ** nr,
        # H(r | u, e) = 0  <=>  every (u, e) pair pins a unique r
        lemma_recoverable_ok=n_cond == order ** nr,
        method="bruteforce",
    )


def _probed_map(scheme: Scheme, e1: Iterable[int], e2: Iterable[int],
                transcripts: Sequence[RepairTranscript]):
    """The observation map over GF(p) as an int64 array with one row per
    observed coordinate and one column per input digit (the u slots, then
    the r slots, m digits each), every entry in [0, p).

    Column j is the observation at the j-th unit digit; the map must give
    zero at zero and reproduce `SPOT_CHECKS` random inputs, or the scheme is
    not linear and `ValueError` is raised."""
    # only this oracle needs numpy: imported here, encode, reconstruct and
    # repair (CLI and simulator alike) never load it
    import numpy as np

    field = scheme.field
    p, m = field.char, field.degree
    ms = scheme.secure_size
    n_digits = (ms + scheme.n_random) * m
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
    a = np.array([observe([int(i == j) for i in range(n_digits)])
                  for j in range(n_digits)], dtype=np.int64).T
    rng = np.random.default_rng(0xB0BA)
    for _ in range(SPOT_CHECKS):
        x = [int(v) for v in rng.integers(0, p, n_digits)]
        if [int(v) for v in (a @ np.array(x, dtype=np.int64)) % p] != observe(x):
            raise ValueError("scheme is not linear: probe mismatch")
    return a


def _assignment_codes(a, p: int, widths: Sequence[int] | None = None):
    """One code per assignment x of each block of input digits, the other
    blocks held at zero: the columns of `a` split into consecutive blocks
    of `widths` digits (by default one block of every column), and block b
    takes p^widths[b] codes of the array, block after block, each block in
    mixed radix with its first digit most significant.  Two codes, in one
    block or in two, are equal iff their vectors a x are equal.

    A row of `a` that is zero, or repeats an earlier row, splits no two
    vectors, so it is skipped (plain equality: the oracle runs no
    elimination of its own).  Each remaining row's values are built in
    place, block by block in one array (`_coordinate_values`), and folded in
    as one more base-p digit, the codes kept in the narrowest unsigned type
    that holds their span: uint8, then uint16, uint32.  Before a fold would
    take the span past 2^32, the codes of every block are relabelled densely
    together (`_relabel`), so they fit in uint32 or, when p itself is wide,
    uint64.  Peak memory is the codes, the coordinate values and a one-byte
    mask; a relabel adds a sorted copy of the codes, its mask and the
    distinct codes."""
    import numpy as np

    rows = [row for row in dict.fromkeys(map(tuple, a.tolist())) if any(row)]
    blocks = []  # (the block's columns, its codes)
    col = n_codes = 0
    for width in (a.shape[1],) if widths is None else widths:
        blocks.append((slice(col, col + width), slice(n_codes, n_codes + p ** width)))
        col += width
        n_codes += p ** width
    values = np.empty(n_codes, dtype=np.min_scalar_type(2 * (p - 1)))
    codes = np.zeros(n_codes, dtype=np.uint8)
    span = 1  # every code lies in [0, span)
    for row in rows:
        if span * p > _RELABEL_SPAN:
            span = _relabel(codes)
        for digits, part in blocks:
            _coordinate_values(row[digits], p, values[part])
        span *= p
        codes = codes.astype(np.min_scalar_type(span - 1), copy=False)
        codes *= p
        codes += values
    return codes


def _coordinate_values(row: Sequence[int], p: int, out) -> None:
    """Fill `out` with row . x mod p for every digit vector x, in mixed
    radix with the first digit most significant.  Digit by digit, each
    prefix's value is extended by coef * digit in place and reduced by one
    conditional subtraction, so `out`'s type need only hold 2(p - 1)."""
    import numpy as np

    digits = np.arange(p, dtype=np.int64)
    out[0] = 0
    size = 1
    for coef in row:
        step = out[:size * p].reshape(size, p)
        # the prefix overlaps `step`; numpy reads it as if copied first
        np.add(out[:size, None], (coef * digits % p).astype(out.dtype), out=step)
        np.subtract(step, p, out=step, where=step >= p)
        size *= p


def _relabel(codes) -> int:
    """Renumber `codes` in place onto [0, n), order kept, and return n, the
    number of distinct codes.  The distinct codes come from a sorted copy;
    each block of `_RELABEL_BLOCK` codes is mapped back by `searchsorted`,
    so the only large temporaries are the copy and its mask."""
    import numpy as np

    distinct = np.sort(codes)
    keep = np.empty(len(distinct), dtype=bool)
    keep[0] = True
    np.not_equal(distinct[1:], distinct[:-1], out=keep[1:])
    distinct = distinct[keep]
    del keep
    for start in range(0, len(codes), _RELABEL_BLOCK):
        block = codes[start:start + _RELABEL_BLOCK]
        block[...] = np.searchsorted(distinct, block)
    return len(distinct)


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
