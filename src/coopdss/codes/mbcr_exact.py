"""Exact-repair secure MBCR construction for n = d + t.

Two-stage encoding.  Stage 1 precodes (r || u) into M = k(2d+t-k) Gabidulin
evaluations x_1..x_M over GF(p^M).  Stage 2 places them:

  part (a)  x_1..x_nk direct-stored, k per node (node i holds x_{(i-1)k+1..ik});
  part (b)  the remaining k(d-k) symbols, in d-k groups of k, each group
            spread over all n nodes through a base-field (n,k) Vandermonde
            MDS code (values y_{j,i});
  secondary each node's d primary symbols (its x block plus its y values) are
            re-encoded by a base-field d x (n-1) Vandermonde Phi whose square
            minors are all nonsingular ([I_d Phi] generates an MDS code); the
            n-1 outputs are scattered one per other node (z values).

Every stored symbol is therefore a base-field combination of the M Gabidulin
evaluations, i.e. an evaluation of the precoding polynomial at a point of
GF(p)^M; secrecy reduces to the GF(p) rank of those points (the Moore-rank
lemma, see coopdss.secrecy).  The base prime p is the smallest prime >= n
with p = 1 mod rad(M) (and mod 4 when 4 | M, so a binomial modulus X^M - c
exists and reduction is one fold) for which the Phi minor search succeeds.

Repair of a failure set T (|T| = t = n - d): each survivor sends the z value
it stores for each failed node (one symbol; the d of them pin down the failed
node's d primary symbols through Phi), then every node, survivors and fellow
newcomers alike, re-derives and sends the z value the failed node used to
store for it (one more symbol).  That is beta = 2 from each live node and
beta' = 1 from each cooperating newcomer, gamma = 2d+t-1 = alpha.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence

from ..field import (
    Matrix,
    ext_field,
    moore_matrix,  # noqa: F401  re-exported: perfbench's tracer wraps it by this name
    prime_field,
    _is_prime,
)
from .base import (
    GabidulinScheme,
    NodeContent,
    ObservationMatrix,
    ParameterError,
    RepairTranscript,
    SchemeParams,
)


def _rad(n: int) -> int:
    r = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            r *= d
            while n % d == 0:
                n //= d
        d += 1
    return r * (n if n > 1 else 1)


def _all_minors_nonsingular(rows: list[list[int]], p: int) -> bool:
    """Every square submatrix nonsingular == [I | A] generates an MDS code."""
    nr, nc = len(rows), len(rows[0])
    for size in range(1, min(nr, nc) + 1):
        for rsel in combinations(range(nr), size):
            sub_rows = [rows[i] for i in rsel]
            for csel in combinations(range(nc), size):
                m = Matrix(prime_field(p), [[row[c] for c in csel] for row in sub_rows])
                if m.rank() < size:
                    return False
    return True


_STRUCTURE_CACHE: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {}


def find_structure(n: int, d: int, m_total: int) -> tuple[int, tuple[int, ...]]:
    """Deterministic (p, Phi points) search for the given (n, d, M)."""
    key = (n, d, m_total)
    if key in _STRUCTURE_CACHE:
        return _STRUCTURE_CACHE[key]
    radm = _rad(m_total)
    if m_total % 4 == 0 and radm % 4 != 0:
        radm *= 2  # force p = 1 mod 4 as well
    p = 2
    while True:
        p += 1
        if not _is_prime(p) or p < n or (p - 1) % radm != 0:
            continue
        # lexicographically first tuple of d' = n-1 distinct nonzero points
        # whose Vandermonde has all square minors nonsingular
        for points in combinations(range(1, p), n - 1):
            rows = [[pow(x, i, p) for x in points] for i in range(d)]
            if _all_minors_nonsingular(rows, p):
                _STRUCTURE_CACHE[key] = (p, points)
                return p, points
        # no point set worked at this prime; try the next admissible prime


class MbcrExactScheme(GabidulinScheme):
    """Secrecy-capacity-achieving exact-repair MBCR code for n = d + t."""

    name = "mbcr-exact"

    def __init__(self, params: SchemeParams):
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if n != d + t:
            raise ParameterError(f"{self.name} requires n = d + t")
        self.params = params
        # at MBCR a download-observing eavesdropper learns nothing extra,
        # so l2 folds into an effective l1
        self.ell = params.l1 + params.l2
        self.file_size = k * (2 * d + t - k)
        self.alpha = 2 * d + t - 1
        self.beta = 2
        self.beta_prime = 1
        self.secure_size = (k - self.ell) * (2 * d + t - k - self.ell)

        m_total = self.file_size
        p, phi_points = find_structure(n, d, m_total)
        self.base = prime_field(p)
        self.field = ext_field(p, m_total)
        # base-field generator matrices (plain ints mod p)
        self.y_code = [[pow(x, i, p) for x in range(n)] for i in range(k)]  # k x n
        self.phi = [[pow(x, i, p) for x in phi_points] for i in range(d)]   # d x (n-1)
        self.layout = (("x", k), ("y", d - k), ("z", n - 1))

        # point vectors (length-M base coordinates) of every stored symbol
        self._primary_points = {i: self._compute_primary_points(i) for i in range(1, n + 1)}

    # -- placement bookkeeping -------------------------------------------------

    def _others(self, i: int) -> list[int]:
        return [j for j in range(1, self.params.n + 1) if j != i]

    def _phi_col(self, source: int, stored_at: int) -> int:
        """Column of Phi assigned to `stored_at` among `source`'s n-1 peers."""
        return stored_at - 1 if stored_at < source else stored_at - 2

    def _compute_primary_points(self, i: int) -> list[list[int]]:
        n, k, d = self.params.n, self.params.k, self.params.d
        m_total = self.file_size
        p = self.base.p
        pts = []
        for s in range(k):  # x block: unit vectors
            v = [0] * m_total
            v[(i - 1) * k + s] = 1
            pts.append(v)
        for j in range(d - k):  # y values: V-combination of part-b group j
            v = [0] * m_total
            for l in range(k):
                v[n * k + j * k + l] = self.y_code[l][i - 1] % p
            pts.append(v)
        return pts

    def _z_point(self, source: int, stored_at: int) -> list[int]:
        p = self.base.p
        col = self._phi_col(source, stored_at)
        prim = self._primary_points[source]
        v = [0] * self.file_size
        for s in range(self.params.d):
            c = self.phi[s][col]
            if c:
                row = prim[s]
                for idx in range(self.file_size):
                    if row[idx]:
                        v[idx] = (v[idx] + c * row[idx]) % p
        return v

    def stored_points(self, i: int) -> list[list[int]]:
        """Evaluation-point vectors (base coordinates) of node i's symbols."""
        pts = [row[:] for row in self._primary_points[i]]
        for src in self._others(i):
            pts.append(self._z_point(src, i))
        return pts

    # -- encode -----------------------------------------------------------------

    def _z_value(self, primary: Sequence[int], source: int, stored_at: int) -> int:
        f = self.field
        col = self._phi_col(source, stored_at)
        acc = f.zero
        for s in range(self.params.d):
            c = self.phi[s][col]
            if c:
                acc = f.add(acc, f.scalar_mul(c, primary[s]))
        return acc

    def _primaries_from_x(self, x: Sequence[int]) -> dict[int, list[int]]:
        n, k, d = self.params.n, self.params.k, self.params.d
        f = self.field
        primaries = {}
        for i in range(1, n + 1):
            prim = list(x[(i - 1) * k:i * k])
            for j in range(d - k):
                group = x[n * k + j * k: n * k + (j + 1) * k]
                acc = f.zero
                for l in range(k):
                    acc = f.add(acc, f.scalar_mul(self.y_code[l][i - 1], group[l]))
                prim.append(acc)
            primaries[i] = prim
        return primaries

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
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        x = [f.zero] * self.file_size
        for i in ids:
            for s, val in enumerate(by_id[i].segment("x")):
                x[(i - 1) * k + s] = val
        # part (b): invert the y-code on the contacted columns
        for j in range(d - k):
            vals = [by_id[i].segment("y")[j] for i in ids]
            vmat = Matrix(f, [[f.element(self.y_code[row][i - 1]) for row in range(k)]
                              for i in ids])
            group = vmat.solve(vals)
            for l in range(k):
                x[n * k + j * k + l] = group[l]
        # remaining nodes: d known codeword coordinates of [I_d Phi] pin the primary
        primaries = self._primaries_from_x(x)  # y parts correct everywhere now
        for i in range(1, n + 1):
            if i in ids:
                continue
            rows = []
            rhs = []
            for c in ids:
                col = self._phi_col(i, c)
                z_val = by_id[c].segment("z")[self._others(c).index(i)]
                acc = z_val
                for s in range(k, d):
                    coeff = self.phi[s][col]
                    if coeff:
                        acc = f.sub(acc, f.scalar_mul(coeff, primaries[i][s]))
                rows.append([f.element(self.phi[s][col]) for s in range(k)])
                rhs.append(acc)
            head = Matrix(f, rows, ncols=k).solve(rhs)
            for s in range(k):
                x[(i - 1) * k + s] = head[s]
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
            rows = []
            rhs = []
            for h in helpers:
                z_hi = survivors[h].segment("z")[self._others(h).index(i)]
                live.setdefault((h, i), []).append(z_hi)
                col = self._phi_col(i, h)
                rows.append([f.element(self.phi[s][col]) for s in range(d)])
                rhs.append(z_hi)
            new_primary[i] = Matrix(f, rows, ncols=d).solve(rhs)
        # second phase: every other node contributes the failed node's z value
        results = []
        for i in sorted(failed):
            z_segment = {}
            for h in helpers:
                prim_h = list(survivors[h].segment("x")) + list(survivors[h].segment("y"))
                z_ih = self._z_value(prim_h, h, i)
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

    def _download_points(self, tr: RepairTranscript,
                         newcomer: int) -> list[tuple[tuple, list[int]]]:
        i = newcomer
        out = []
        for h in tr.helpers:
            out.append((("live", h, i, 0), self._z_point(i, h)))
            out.append((("live", h, i, 1), self._z_point(h, i)))
        for m in sorted(tr.failed - {i}):
            out.append((("coop", m, i, 0), self._z_point(m, i)))
        return out

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._point_observation(e1, e2, transcripts)
