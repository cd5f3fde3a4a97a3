"""Exact-repair secure MBCR construction for n = d + t.

Two-stage encoding.  Stage 1 precodes (r || u) into M = k(2d+t-k) Gabidulin
evaluations x_1..x_M over GF(p^M).  Stage 2 places them:

  part (a)  x_1..x_nk direct-stored, k per node (node i holds x_{(i-1)k+1..ik});
  part (b)  the remaining k(d-k) symbols, in d-k groups of k, each group
            spread over all n nodes through a base-field (n,k) Vandermonde
            MDS code (values y_{j,i});
  secondary each node's d primary symbols (its x block plus its y values) are
            re-encoded by a base-field d x (n-1) Cauchy matrix Phi, every
            square minor of which is nonsingular ([I_d Phi] generates an MDS
            code); the n-1 outputs are scattered one per other node (z values).

Every stored symbol is therefore a base-field combination of the M Gabidulin
evaluations, i.e. an evaluation of the precoding polynomial at a point of
GF(p)^M; secrecy reduces to the GF(p) rank of those points (the Moore-rank
lemma, see coopdss.secrecy).  The points are closed forms too.  Node i's x
symbols are the unit vectors on its x block, and its y value of group j is
its y-code column on the coordinates of group j.  These sit on disjoint
coordinates, so the point of a z value of node `source`, made with Phi
column c, is c's first k entries on source's x block and c[k+j] times
source's y-code column on each group j (`_z_point`); no coordinate is
scanned.

Phi and p are closed forms, not a search (see `find_structure`):
p = binomial_prime(d+n-1, M), the smallest prime >= d+n-1
with p = 1 mod rad(M) (and mod 4 when 4 | M), so GF(p^M) has a binomial
modulus; p >= d+n-1 leaves room for the d+n-1 distinct Cauchy points, so any
n = d + t can be built.

Repair of a failure set T (|T| = t = n - d): each survivor sends the z value
it stores for each failed node (one symbol; the d of them pin down the failed
node's d primary symbols through Phi), then every node, survivors and fellow
newcomers alike, re-derives and sends the z value the failed node used to
store for it (one more symbol).  That is beta = 2 from each live node and
beta' = 1 from each cooperating newcomer, gamma = 2d+t-1 = alpha.

Repair and reconstruction eliminate nothing: the y-code is inverted by
`vandermonde_inverse` on the contacted nodes' points, and a square block of
Phi, a scaled Cauchy matrix, by `cauchy_inverse` and the scales
(`_phi_block_inverse`).  Each solved symbol is one `dot` of a GF(p) row with
GF(p^M) values.  Both inverses depend only on the failure set, the helpers
or the contacted nodes, never on data, so they come from bounded
process-wide caches of immutable rows: `vandermonde_inverse_rows` (256
entries, keyed by (p, points)) and `_phi_block_rows` (64 entries, keyed by
(p, d, Phi columns, size)).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from ..field import (
    binomial_prime,
    cauchy_inverse,
    ext_field,
    fits_word_slots,
    moore_matrix,  # noqa: F401  re-exported: perfbench's tracer wraps it by this name
    prime_field,
    vandermonde_inverse_rows,
)
from .base import (
    GabidulinScheme,
    NodeContent,
    ParameterError,
    PointObservation,
    RepairTranscript,
    SchemeParams,
)


def _base_prime(n: int, d: int, m_total: int) -> int:
    """The least prime >= d+n-1 (room for the d+n-1 distinct Cauchy points)
    over which GF(p^M) has a binomial modulus."""
    return binomial_prime(d + n - 1, m_total)


def find_structure(n: int, d: int, m_total: int) -> tuple[int, list[list[int]]]:
    """The base prime p and the d x (n-1) secondary generator Phi over GF(p).

    Phi is the Cauchy matrix C[s][c] = 1/(x_s - y_c) on x_s = s and
    y_c = d + c, scaled so that row 0 and column 0 are all ones:
    Phi[s][c] = C[s][c] C[0][0] / (C[s][0] C[0][c]) = (d-s)(d+c) / (d(d+c-s)).
    A Cauchy matrix on distinct, disjoint points is superregular, every
    square minor is nonsingular (MacWilliams & Sloane ch. 11), and nonzero
    row and column scalings keep it so.  The d+n-1 points are distinct in
    GF(p) because p >= d+n-1.
    """
    p = _base_prime(n, d, m_total)
    inv_d = pow(d, p - 2, p)
    phi = [[(d - s) * (d + c) * inv_d * pow(d + c - s, p - 2, p) % p for c in range(n - 1)]
           for s in range(d)]
    return p, phi


def _phi_block_inverse(p: int, d: int, cols: Sequence[int], size: int) -> list[list[int]]:
    """Inverse over GF(p) of the block R[h][s] = Phi[s][cols[h]], s < size,
    with len(cols) = size.

    Phi[s][c] = a_s b_c / (y_c - x_s) with x_s = s, y_c = b_c = d + c and
    a_s = (d - s) / d (see `find_structure`), so R = diag(b) C diag(a) for
    the Cauchy matrix C[h][s] = 1/(y_{cols[h]} - s), and
    R^-1[s][h] = C^-1[s][h] / (a_s b_{cols[h]}).
    """
    ys = [d + c for c in cols]
    c_inv = cauchy_inverse(p, ys, range(size))
    inv_b = [pow(y, p - 2, p) for y in ys]
    out = []
    for s, row in enumerate(c_inv):
        inv_a = d * pow(d - s, p - 2, p)
        out.append([ci * inv_a * ib % p for ci, ib in zip(row, inv_b)])
    return out


@lru_cache(maxsize=64)
def _phi_block_rows(p: int, d: int, cols: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """`_phi_block_inverse` as a tuple of tuples, from a bounded process-wide
    cache keyed by (p, d, cols, size); cols must be a tuple.

    A block depends only on the failed node and the nodes it meets, so a
    lifetime meets the same few blocks again (at most n C(n-1, t-1) repair
    blocks per instance).  Worst case: 64 entries of size^2 ints below p,
    about 36 size^2 bytes each, size <= d: under 1 KB for the d <= 5 of the
    benchmark, and never more than the lists `_phi_block_inverse` builds for
    the same call (the word-slot cap admits d up to about 3500).  A repair
    adds at most t entries, a reconstruct at most n - k.
    """
    return tuple(map(tuple, _phi_block_inverse(p, d, cols, size)))


class MbcrExactScheme(GabidulinScheme):
    """Secrecy-capacity-achieving exact-repair MBCR code for n = d + t.

    Observation points are written from the closed forms (`_stored_rows`,
    `_z_point`), each in O(M) steps; the base class keeps a node's stored
    rows for the life of the instance."""

    name = "mbcr-exact"

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if n != d + t:
            raise ParameterError(f"{cls.name} requires n = d + t")
        m_total = k * (2 * d + t - k)
        # the word-width cap falls as p grows: refuse at the least candidate
        # p before any primality test
        if m_total > 1 and not fits_word_slots(d + n - 1, m_total):
            raise ParameterError(f"GF(p^{m_total}), p >= {d + n - 1}, is too large "
                                 "for 64-bit digit slots")
        return (_base_prime(n, d, m_total), m_total, 2 * d + t - 1,
                (("x", k), ("y", d - k), ("z", n - 1)))

    def __init__(self, params: SchemeParams):
        p, m_total, self.alpha, self.layout = self.node_format(params)
        n, k, d, t = params.n, params.k, params.d, params.t
        self.params = params
        # at MBCR a download-observing eavesdropper learns nothing extra,
        # so l2 folds into an effective l1
        self.ell = params.l1 + params.l2
        self.file_size = m_total
        self.beta = 2
        self.beta_prime = 1
        self.secure_size = (k - self.ell) * (2 * d + t - k - self.ell)

        # the field first: its word-width check rejects an oversized M (a
        # forged header) before the d x (n-1) Phi is built
        self.field = ext_field(p, m_total)
        _, phi = find_structure(n, d, m_total)  # phi: d x (n-1)
        self.base = prime_field(p)
        # base-field generator matrices (plain ints mod p), one list per column:
        # Phi's n-1 columns, and the y-code's column (1, x, ..., x^(k-1)) at
        # the point x = i-1 of node i
        self.phi_cols = [list(col) for col in zip(*phi)]
        self.y_cols = [[pow(x, l, p) for l in range(k)] for x in range(n)]

    # -- placement bookkeeping -------------------------------------------------

    def _others(self, i: int) -> list[int]:
        return [j for j in range(1, self.params.n + 1) if j != i]

    def _phi_col(self, source: int, stored_at: int) -> int:
        """Column of Phi assigned to `stored_at` among `source`'s n-1 peers."""
        return stored_at - 1 if stored_at < source else stored_at - 2

    def _z_point(self, source: int, stored_at: int) -> list[int]:
        """Point of the z value `source` stores at `stored_at`, in closed
        form (see the module docstring)."""
        p, n, k = self.base.p, self.params.n, self.params.k
        c = self.phi_cols[self._phi_col(source, stored_at)]
        y = self.y_cols[source - 1]
        v = [0] * self.file_size
        v[(source - 1) * k:source * k] = c[:k]
        for j, cj in enumerate(c[k:]):
            v[n * k + j * k:n * k + (j + 1) * k] = [cj * yl % p for yl in y]
        return v

    def _stored_rows(self, i: int) -> list[list[int]]:
        """Evaluation-point vectors (base coordinates) of node i's symbols:
        k unit vectors on its x block, its y column on each of the d-k
        part-b groups, then one z point per peer."""
        n, k, d = self.params.n, self.params.k, self.params.d
        m_total = self.file_size
        rows = []
        for s in range(k):
            v = [0] * m_total
            v[(i - 1) * k + s] = 1
            rows.append(v)
        for j in range(d - k):
            v = [0] * m_total
            v[n * k + j * k:n * k + (j + 1) * k] = self.y_cols[i - 1]
            rows.append(v)
        return rows + [self._z_point(src, i) for src in self._others(i)]

    # -- encode -----------------------------------------------------------------

    def _z_value(self, primary: Sequence[int], source: int, stored_at: int) -> int:
        return self.field.dot(self.phi_cols[self._phi_col(source, stored_at)], primary)

    def _primaries_from_x(self, x: Sequence[int]) -> dict[int, list[int]]:
        n, k, d = self.params.n, self.params.k, self.params.d
        dot = self.field.dot
        groups = [x[n * k + j * k:n * k + (j + 1) * k] for j in range(d - k)]
        return {i: list(x[(i - 1) * k:i * k]) + [dot(self.y_cols[i - 1], g) for g in groups]
                for i in range(1, n + 1)}

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        x = self._precode(u, r)
        primaries = self._primaries_from_x(x)
        nodes = []
        for i in range(1, self.params.n + 1):
            syms = list(primaries[i])
            for src in self._others(i):
                syms.append(self._z_value(primaries[src], src, i))
            nodes.append(NodeContent(i, tuple(syms), self.layout))
        return nodes

    # -- reconstruct -------------------------------------------------------------

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        n, k, d = self.params.n, self.params.k, self.params.d
        f = self.field
        p = self.base.p
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        x = [f.zero] * self.file_size
        for i in ids:
            x[(i - 1) * k:i * k] = by_id[i].segment("x")
        # part (b): invert the y-code on the contacted columns
        y_inv = vandermonde_inverse_rows(p, tuple(i - 1 for i in ids))
        for j in range(d - k):
            vals = [by_id[i].segment("y")[j] for i in ids]
            x[n * k + j * k:n * k + (j + 1) * k] = [f.dot(row, vals) for row in y_inv]
        # remaining nodes: d known codeword coordinates of [I_d Phi] pin the primary
        primaries = self._primaries_from_x(x)  # y parts correct everywhere now
        for i in range(1, n + 1):
            if i in ids:
                continue
            cols = tuple(self._phi_col(i, c) for c in ids)
            # z value minus the known y part: the x block's share of it (c's
            # z segment holds i's value at i's position among c's n-1 peers)
            rhs = [f.sub(by_id[c].segment("z")[self._phi_col(c, i)],
                         f.dot(self.phi_cols[col][k:], primaries[i][k:]))
                   for c, col in zip(ids, cols)]
            x[(i - 1) * k:i * k] = [f.dot(row, rhs)
                                    for row in _phi_block_rows(p, d, cols, k)]
        return self._secret_from_evaluations(x)

    # -- repair -------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        f = self.field
        d = self.params.d
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        if set(helpers) != set(survivors):
            raise ParameterError(f"{self.name} repair contacts all d = n-t survivors")
        live: dict[tuple[int, int], list[int]] = {}
        coop: dict[tuple[int, int], list[int]] = {}
        new_primary: dict[int, list[int]] = {}
        for i in sorted(failed):
            rhs = []
            for h in helpers:
                # h's z segment holds i's value at i's position among h's n-1 peers
                z_hi = survivors[h].segment("z")[self._phi_col(h, i)]
                live[(h, i)] = [z_hi]
                rhs.append(z_hi)
            cols = tuple(self._phi_col(i, h) for h in helpers)
            new_primary[i] = [f.dot(row, rhs)
                              for row in _phi_block_rows(self.base.p, d, cols, d)]
        # second phase: every other node contributes the failed node's z
        # value, from its primary symbols (its x then its y segment)
        primaries = {h: survivors[h].symbols[:d] for h in helpers}
        results = []
        for i in sorted(failed):
            z_segment = {}
            for h in helpers:
                z_ih = self._z_value(primaries[h], h, i)
                live[(h, i)].append(z_ih)
                z_segment[h] = z_ih
            for m in sorted(failed - {i}):
                z_im = self._z_value(new_primary[m], m, i)
                coop.setdefault((m, i), []).append(z_im)
                z_segment[m] = z_im
            syms = list(new_primary[i]) + [z_segment[src] for src in self._others(i)]
            results.append(NodeContent(i, tuple(syms), self.layout))
        return RepairTranscript(
            failed=failed,
            helpers=helpers,
            live_transfers={k2: tuple(v) for k2, v in live.items()},
            coop_transfers={k2: tuple(v) for k2, v in coop.items()},
            results=tuple(results),
        )

    # -- observation ----------------------------------------------------------------

    def _download_rows(self, tr: RepairTranscript, i: int) -> list[list[int]]:
        rows = []
        for h in tr.helpers:
            rows += [self._z_point(i, h), self._z_point(h, i)]
        return rows + [self._z_point(m, i) for m in sorted(tr.failed - {i})]

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> PointObservation:
        return self._point_observation(e1, e2, transcripts)
