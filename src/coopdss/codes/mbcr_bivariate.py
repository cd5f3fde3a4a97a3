"""Bivariate-polynomial secure MBCR construction, any n >= d + t.

F(X,Y) carries M = k(2d+t-k) coefficients over GF(q), q > n prime:

    a_ij X^i Y^j   (i < k,      j < k)
    b_ij X^i Y^j   (i < k,      k <= j < d+t)
    c_ij X^i Y^j   (k <= i < d, j < k)

Node i stores F(x_i, y_{i+s mod n}) for s = 0..d+t-1 (its row polynomial
f_i(Y), degree < d+t, fully determined) and F(x_{i+s mod n}, y_i) for
s = 1..d-1 (together with F(x_i,y_i) these pin its column polynomial g_i(X),
degree < d).  The coefficients with X-degree < l or Y-degree < l (l the
effective eavesdropper budget) are the randomness; the remaining
M - l(2d+t-l) are the data.

Repair of failure set T: helper h sends f_h(y_i) and g_h(x_i) to newcomer i
(beta = 2); newcomer j first rebuilds g_j from its d column evidences, then
sends g_j(x_i) to each peer (beta' = 1); i then holds d+t row evaluations
(helpers, peers, own g_i(x_i)) and interpolates f_i.

Every interpolation, in repair and in reconstruction, applies the closed-form
inverse of its Vandermonde matrix (`vandermonde_inverse`, Lagrange
coefficients), so no system is eliminated.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, next_prime, prime_field, vandermonde_inverse
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    RepairTranscript,
    Scheme,
    SchemeParams,
)


def _poly_eval(q: int, coeffs: Sequence[int], x: int) -> int:
    """The polynomial at x over GF(q), by Horner's rule on ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _interpolate(field, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients (low first) of the unique poly of degree < len(xs)
    through the points (xs, ys)."""
    dot = field.dot
    return [dot(row, ys) for row in vandermonde_inverse(field.p, xs)]


class MbcrBivariateScheme(Scheme):
    """Bivariate-polynomial MBCR code with the secure coefficient split."""

    name = "mbcr-bivariate"

    def __init__(self, params: SchemeParams):
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if n < d + t:
            raise ParameterError(f"{self.name} requires n >= d + t")
        self.params = params
        self.ell = params.l1 + params.l2  # downloads = stored at MBCR
        self.file_size = k * (2 * d + t - k)
        self.alpha = 2 * d + t - 1
        self.beta = 2
        self.beta_prime = 1
        self.secure_size = self.file_size - self.ell * (2 * d + t - self.ell)

        self.field = prime_field(next_prime(n + 1))
        self.x_points = tuple(range(n))
        self.y_points = tuple(range(n))
        support = []
        support += [(i, j) for i in range(k) for j in range(k)]
        support += [(i, j) for i in range(k) for j in range(k, d + t)]
        support += [(i, j) for i in range(k, d) for j in range(k)]
        ell = self.ell
        self.r_support = tuple(sorted(ij for ij in support if ij[0] < ell or ij[1] < ell))
        self.u_support = tuple(sorted(ij for ij in support if ij[0] >= ell and ij[1] >= ell))
        assert len(self.r_support) == self.n_random
        self.layout = (("row", d + t), ("col", d - 1))

    # -- placement -----------------------------------------------------------------

    def _wrap(self, i: int, s: int) -> int:
        return (i - 1 + s) % self.params.n + 1

    def _stored_eval_points(self, i: int) -> list[tuple[int, int]]:
        d, t = self.params.d, self.params.t
        pts = [(i, self._wrap(i, s)) for s in range(d + t)]       # (x_i, y_*)
        pts += [(self._wrap(i, s), i) for s in range(1, d)]       # (x_*, y_i)
        return pts

    def _monomial_row(self, xi: int, yi: int, support: Sequence[tuple[int, int]]) -> list[int]:
        q = self.field.p
        x = self.x_points[xi - 1]
        y = self.y_points[yi - 1]
        return [(pow(x, i, q) * pow(y, j, q)) % q for i, j in support]

    def _coeff_map(self, u: Sequence[int], r: Sequence[int]) -> dict[tuple[int, int], int]:
        coeffs = dict(zip(self.r_support, r))
        coeffs.update(zip(self.u_support, u))
        return coeffs

    def _eval_f(self, coeffs: Mapping[tuple[int, int], int], xi: int, yi: int) -> int:
        q = self.field.p
        x = self.x_points[xi - 1]
        y = self.y_points[yi - 1]
        acc = 0
        for (i, j), c in coeffs.items():
            if c:
                acc = (acc + c * pow(x, i, q) * pow(y, j, q)) % q
        return acc

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        coeffs = self._coeff_map(u, r)
        nodes = []
        for i in range(1, self.params.n + 1):
            syms = tuple(self._eval_f(coeffs, xi, yi)
                         for xi, yi in self._stored_eval_points(i))
            nodes.append(NodeContent(i, syms, self.layout))
        return nodes

    # -- reconstruction ----------------------------------------------------------------

    def _row_poly(self, content: NodeContent) -> list[int]:
        """f_i(Y), degree < d+t, from the stored row segment."""
        d, t = self.params.d, self.params.t
        i = content.node_id
        ys = [self.y_points[self._wrap(i, s) - 1] for s in range(d + t)]
        return _interpolate(self.field, ys, content.segment("row"))

    def _col_poly(self, content: NodeContent) -> list[int]:
        """g_i(X), degree < d, from F(x_i,y_i) plus the column segment."""
        d = self.params.d
        i = content.node_id
        xs = [self.x_points[i - 1]] + [self.x_points[self._wrap(i, s) - 1]
                                       for s in range(1, d)]
        vals = [content.segment("row")[0]] + list(content.segment("col"))
        return _interpolate(self.field, xs, vals)

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        k, d, t = self.params.k, self.params.d, self.params.t
        f = self.field
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        rows = {i: self._row_poly(by_id[i]) for i in ids}
        cols = {i: self._col_poly(by_id[i]) for i in ids}
        xs = [self.x_points[i - 1] for i in ids]
        # phi_j(X) = X-polynomial multiplying Y^j; degree < k for j >= k
        phi: dict[int, list[int]] = {}
        for j in range(k, d + t):
            vals = [rows[i][j] for i in ids]
            phi[j] = _interpolate(f, xs, vals)
        # degree < d for j < k, determined coefficient-wise from the column polys
        w_inv = vandermonde_inverse(f.p, [self.y_points[i - 1] for i in ids])
        residues = []
        for i in ids:
            g = list(cols[i]) + [f.zero] * (d - len(cols[i]))
            y = self.y_points[i - 1]
            for j in range(k, d + t):
                yj = pow(y, j, f.p)
                for a in range(len(phi[j])):
                    g[a] = f.sub(g[a], f.mul(yj, phi[j][a]))
            residues.append(g)
        for a in range(d):
            column = [residues[idx][a] for idx in range(k)]
            sol = [f.dot(row, column) for row in w_inv]
            for j in range(k):
                phi.setdefault(j, [f.zero] * d)[a] = sol[j]
        coeffs = {}
        for j, pol in phi.items():
            for i, c in enumerate(pol):
                if i < (k if j >= k else d):
                    coeffs[(i, j)] = c
        return tuple(coeffs.get(ij, f.zero) for ij in self.u_support)

    # -- repair ---------------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        f = self.field
        q = f.p
        d, t = self.params.d, self.params.t
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        live: dict[tuple[int, int], tuple[int, ...]] = {}
        coop: dict[tuple[int, int], tuple[int, ...]] = {}
        helper_rows = {h: self._row_poly(survivors[h]) for h in helpers}
        helper_cols = {h: self._col_poly(survivors[h]) for h in helpers}
        col_evidence: dict[int, list[int]] = {i: [] for i in sorted(failed)}
        row_evidence: dict[int, dict[int, int]] = {i: {} for i in sorted(failed)}
        for i in sorted(failed):
            for h in helpers:
                f_h_at_yi = _poly_eval(q, helper_rows[h], self.y_points[i - 1])
                g_h_at_xi = _poly_eval(q, helper_cols[h], self.x_points[i - 1])
                live[(h, i)] = (f_h_at_yi, g_h_at_xi)
                col_evidence[i].append(f_h_at_yi)
                row_evidence[i][h] = g_h_at_xi
        # each newcomer rebuilds its column polynomial from the d column evidences
        new_cols = {}
        for i in sorted(failed):
            xs = [self.x_points[h - 1] for h in helpers]
            new_cols[i] = _interpolate(f, xs, col_evidence[i])
        # cooperative phase: peers trade g_j(x_i)
        for i in sorted(failed):
            for j in sorted(failed - {i}):
                val = _poly_eval(q, new_cols[j], self.x_points[i - 1])
                coop[(j, i)] = (val,)
                row_evidence[i][j] = val
        results = []
        for i in sorted(failed):
            ys = [self.y_points[h - 1] for h in helpers]
            vals = [row_evidence[i][h] for h in helpers]
            for j in sorted(failed - {i}):
                ys.append(self.y_points[j - 1])
                vals.append(row_evidence[i][j])
            ys.append(self.y_points[i - 1])
            vals.append(_poly_eval(q, new_cols[i], self.x_points[i - 1]))
            f_i = _interpolate(f, ys, vals)
            row_seg = [_poly_eval(q, f_i, self.y_points[self._wrap(i, s) - 1])
                       for s in range(d + t)]
            col_seg = [_poly_eval(q, new_cols[i], self.x_points[self._wrap(i, s) - 1])
                       for s in range(1, d)]
            results.append(NodeContent(i, tuple(row_seg + col_seg), self.layout))
        return RepairTranscript(failed=failed, helpers=helpers,
                                live_transfers={k2: tuple(v) for k2, v in live.items()},
                                coop_transfers=coop, results=tuple(results))

    # -- observation -----------------------------------------------------------------------

    def _download_eval_points(self, tr: RepairTranscript,
                              newcomer: int) -> list[tuple[tuple, tuple[int, int]]]:
        out = []
        for h in tr.helpers:
            out.append((("live", h, newcomer, 0), (h, newcomer)))        # f_h(y_i)
            out.append((("live", h, newcomer, 1), (newcomer, h)))        # g_h(x_i)
        for j in sorted(tr.failed - {newcomer}):
            out.append((("coop", j, newcomer, 0), (newcomer, j)))        # g_j(x_i)
        return out

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        e1, e2 = self._validate_eaves(e1, e2, transcripts)
        eval_points: list[tuple[int, int]] = []
        labels: list[tuple] = []
        for e in e1 + e2:
            for idx, pt in enumerate(self._stored_eval_points(e)):
                eval_points.append(pt)
                labels.append(("stored", e, idx))
        for t_idx, tr in enumerate(transcripts):
            for i in sorted(tr.failed & set(e2)):
                for label, pt in self._download_eval_points(tr, i):
                    eval_points.append(pt)
                    labels.append((label[0], t_idx) + label[1:])
        a_u = Matrix(self.field, [self._monomial_row(x, y, self.u_support)
                                  for x, y in eval_points], ncols=self.secure_size)
        a_r = Matrix(self.field, [self._monomial_row(x, y, self.r_support)
                                  for x, y in eval_points], ncols=self.n_random)
        return ObservationMatrix(a_u=a_u, a_r=a_r, labels=tuple(labels))
