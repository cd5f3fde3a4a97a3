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
(beta = 2); newcomer j sends g_j(x_i) to each peer (beta' = 1), where g_j is
pinned by its d column evidences f_h(y_j) at the helpers' x_h; i then holds
d+t row evaluations of f_i (helpers, peers, own g_i(x_i)).  Every transfer
and every rebuilt symbol is one value of a polynomial at one point, so repair
never builds a polynomial: `_lagrange_at` returns a stored value when the
point is one of the polynomial's evaluation points (y_i in helper h's row
window, x_i in its column window, every row point of f_i when n = d+t) and
otherwise one dot of a Lagrange row with the values it holds.  The row
depends on the points alone, so `lagrange_row` keeps it in a bounded
process-wide cache (4096 entries, keyed by (q, points, x)).

Reconstruction needs coefficients: each of its interpolations applies the
closed-form inverse of its Vandermonde matrix (Lagrange coefficients), so no
system is eliminated.  The inverse rows come from the bounded process-wide
cache `vandermonde_inverse_rows` (256 entries, keyed by (q, points)).

Encoding evaluates F in two Horner stages (the Y-polynomial of each
X-degree, then X).  The support has M entries and the joint-rank verdict
costs O(rows * M^2) in pure Python, so M is capped at MAX_FILE_SIZE.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, Sequence

from ..field import lagrange_row, next_prime, prime_field, vandermonde_inverse_rows
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    RepairTranscript,
    Scheme,
    SchemeParams,
)


MAX_FILE_SIZE = 1 << 16  # largest M = k(2d+t-k) a scheme is built for


def _lagrange_at(q: int, xs: tuple[int, ...], ys: Sequence[int], x: int) -> int:
    """The value at x of the polynomial of degree < len(xs) through the
    points (xs, ys) over GF(q), without its coefficients.

    When x is one of the points this is its stored value; otherwise one dot
    of the cached Lagrange row of (xs, x) with ys (`lagrange_row`), with no
    `pow`.  xs must be a tuple.
    """
    if x in xs:
        return ys[xs.index(x)]
    return sum(map(mul, lagrange_row(q, xs, x), ys)) % q


def _interpolate(field, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients (low first) of the unique poly of degree < len(xs)
    through the points (xs, ys)."""
    dot = field.dot
    return [dot(row, ys) for row in vandermonde_inverse_rows(field.p, tuple(xs))]


class MbcrBivariateScheme(Scheme):
    """Bivariate-polynomial MBCR code with the secure coefficient split."""

    name = "mbcr-bivariate"

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if n < d + t:
            raise ParameterError(f"{cls.name} requires n >= d + t")
        m_total = k * (2 * d + t - k)
        if m_total > MAX_FILE_SIZE:
            raise ParameterError(f"{cls.name} file size M={m_total} too large "
                                 f"(at most {MAX_FILE_SIZE})")
        return next_prime(n + 1), 1, 2 * d + t - 1, (("row", d + t), ("col", d - 1))

    def __init__(self, params: SchemeParams):
        q, _, self.alpha, self.layout = self.node_format(params)
        n, k, d, t = params.n, params.k, params.d, params.t
        self.file_size = k * (2 * d + t - k)
        self.params = params
        self.ell = params.l1 + params.l2  # downloads = stored at MBCR
        self.beta = 2
        self.beta_prime = 1
        self.secure_size = self.file_size - self.ell * (2 * d + t - self.ell)

        self.field = prime_field(q)
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

    # -- placement -----------------------------------------------------------------

    def _wrap(self, i: int, s: int) -> int:
        return (i - 1 + s) % self.params.n + 1

    def _stored_points(self, i: int) -> list[tuple[int, int]]:
        """The points at which node i stores F, as index pairs into (x_points, y_points)."""
        d, t = self.params.d, self.params.t
        pts = [(i, self._wrap(i, s)) for s in range(d + t)]       # (x_i, y_*)
        pts += [(self._wrap(i, s), i) for s in range(1, d)]       # (x_*, y_i)
        return pts

    @cached_property
    def _monomial_rows(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(xi, yi) -> `_monomial_row(xi, yi)`; at most n^2 points."""
        return {}

    def _monomial_row(self, xi: int, yi: int) -> tuple[int, ...]:
        """The row x^i y^j of the point (x_xi, y_yi) over the r then the u
        support, built once per point and instance: a lifetime observes the
        same few points again and again."""
        row = self._monomial_rows.get((xi, yi))
        if row is None:
            q = self.field.p
            x = self.x_points[xi - 1]
            y = self.y_points[yi - 1]
            xp, yp = [1], [1]
            for _ in range(self.params.d + self.params.t - 1):  # no degree reaches d+t
                xp.append(xp[-1] * x % q)
                yp.append(yp[-1] * y % q)
            row = self._monomial_rows[(xi, yi)] = tuple(
                xp[i] * yp[j] % q for i, j in self.r_support + self.u_support)
        return row

    def _coeff_rows(self, u: Sequence[int], r: Sequence[int]) -> list[list[int]]:
        """Row i holds the Y-coefficients (low first) of X^i in F."""
        k, d, t = self.params.k, self.params.d, self.params.t
        rows = [[0] * (d + t if i < k else k) for i in range(d)]
        for (i, j), c in zip(self.r_support, r):
            rows[i][j] = c
        for (i, j), c in zip(self.u_support, u):
            rows[i][j] = c
        return rows

    def _eval_f(self, rows: Sequence[Sequence[int]], xi: int, yi: int) -> int:
        """F(x_xi, y_yi) by Horner's rule: each row in Y, then the rows in X."""
        q = self.field.p
        x = self.x_points[xi - 1]
        y = self.y_points[yi - 1]
        acc = 0
        for row in reversed(rows):
            inner = 0
            for c in reversed(row):
                inner = (inner * y + c) % q
            acc = (acc * x + inner) % q
        return acc

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        rows = self._coeff_rows(u, r)
        nodes = []
        for i in range(1, self.params.n + 1):
            syms = tuple(self._eval_f(rows, xi, yi)
                         for xi, yi in self._stored_points(i))
            nodes.append(NodeContent(i, syms, self.layout))
        return nodes

    # -- reconstruction ----------------------------------------------------------------

    def _row_points(self, i: int) -> tuple[int, ...]:
        """The d+t points y_* at which node i stores its row polynomial f_i."""
        return tuple(self.y_points[self._wrap(i, s) - 1]
                     for s in range(self.params.d + self.params.t))

    def _col_points(self, i: int) -> tuple[int, ...]:
        """The d points x_* at which node i stores its column polynomial g_i;
        x_i first, whose value F(x_i, y_i) opens the row segment."""
        return tuple(self.x_points[self._wrap(i, s) - 1] for s in range(self.params.d))

    def _col_values(self, content: NodeContent) -> list[int]:
        return [content.segment("row")[0]] + list(content.segment("col"))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        k, d, t = self.params.k, self.params.d, self.params.t
        f = self.field
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < k:
            raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
        ids = sorted(by_id)[:k]
        # f_i(Y), degree < d+t, and g_i(X), degree < d, from the stored values
        rows = {i: _interpolate(f, self._row_points(i), by_id[i].segment("row")) for i in ids}
        cols = {i: _interpolate(f, self._col_points(i), self._col_values(by_id[i]))
                for i in ids}
        xs = [self.x_points[i - 1] for i in ids]
        # phi_j(X) = X-polynomial multiplying Y^j; degree < k for j >= k
        phi: dict[int, list[int]] = {}
        for j in range(k, d + t):
            vals = [rows[i][j] for i in ids]
            phi[j] = _interpolate(f, xs, vals)
        # degree < d for j < k, determined coefficient-wise from the column polys
        w_inv = vandermonde_inverse_rows(f.p, tuple(self.y_points[i - 1] for i in ids))
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
        q = self.field.p
        x, y = self.x_points, self.y_points
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        newcomers = sorted(failed)
        live: dict[tuple[int, int], tuple[int, int]] = {}
        coop: dict[tuple[int, int], tuple[int]] = {}
        stored = [(self._row_points(h), survivors[h].segment("row"),
                   self._col_points(h), self._col_values(survivors[h])) for h in helpers]
        for i in newcomers:
            for h, (row_pts, row_vals, col_pts, col_vals) in zip(helpers, stored):
                live[(h, i)] = (_lagrange_at(q, row_pts, row_vals, y[i - 1]),   # f_h(y_i)
                                _lagrange_at(q, col_pts, col_vals, x[i - 1]))   # g_h(x_i)
        # newcomer j's column polynomial g_j takes the value f_h(y_j) at x_h
        helper_xs = tuple(x[h - 1] for h in helpers)
        col_evidence = {j: [live[(h, j)][0] for h in helpers] for j in newcomers}
        # cooperative phase: peers trade g_j(x_i)
        for i in newcomers:
            for j in newcomers:
                if j != i:
                    coop[(j, i)] = (_lagrange_at(q, helper_xs, col_evidence[j], x[i - 1]),)
        results = []
        for i in newcomers:
            # f_i takes g_h(x_i) at y_h, g_j(x_i) at y_j and g_i(x_i) at y_i
            ys = [y[h - 1] for h in helpers]
            vals = [live[(h, i)][1] for h in helpers]
            for j in newcomers:
                if j != i:
                    ys.append(y[j - 1])
                    vals.append(coop[(j, i)][0])
            ys.append(y[i - 1])
            vals.append(_lagrange_at(q, helper_xs, col_evidence[i], x[i - 1]))
            ys = tuple(ys)
            row_seg = [_lagrange_at(q, ys, vals, pt) for pt in self._row_points(i)]
            col_seg = [_lagrange_at(q, helper_xs, col_evidence[i], pt)
                       for pt in self._col_points(i)[1:]]
            results.append(NodeContent(i, tuple(row_seg + col_seg), self.layout))
        return RepairTranscript(failed=failed, helpers=helpers, live_transfers=live,
                                coop_transfers=coop, results=tuple(results))

    # -- observation -----------------------------------------------------------------------

    def _stored_rows(self, i: int) -> list[tuple[int, ...]]:
        return [self._monomial_row(*pt) for pt in self._stored_points(i)]

    def _download_rows(self, tr: RepairTranscript, i: int) -> list[tuple[int, ...]]:
        points = []
        for h in tr.helpers:
            points += [(h, i), (i, h)]                                # f_h(y_i), g_h(x_i)
        points += [(i, j) for j in sorted(tr.failed - {i})]           # g_j(x_i)
        return [self._monomial_row(*pt) for pt in points]

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._linear_observation(e1, e2, transcripts)
