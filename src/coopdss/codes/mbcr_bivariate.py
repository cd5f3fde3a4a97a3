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
never builds a polynomial.  It runs as a repair plan (`_repair_plan`, see
`Scheme._run_plan`): a value at one of the polynomial's own evaluation
points (y_i in helper h's row window, x_i in its column window, every row
point of f_i when n = d+t) is a reference to the slot that holds it, and
any other is one step, the dot of a Lagrange row with the slots of the
values it is known by.  The row depends on the points alone and comes from
the bounded process-wide cache `lagrange_row` (4096 entries, keyed by (q,
points, x)); the plan keeps the cached tuple itself.  A round then gathers
only the helper symbols the plan reads and runs its steps.

Encoding and reconstruction are plans too (`_encode_plan`,
`_reconstruct_plan`, see `Scheme._run_plan`), over r || u and over the k
contacted nodes' symbols.  The encode plan evaluates F in two stages, each
step a row of powers: the Y-polynomial of each X-degree at each y, then
those values at each stored point's x.  Reconstruction needs coefficients:
its steps apply closed-form inverse Vandermonde rows (Lagrange
coefficients, from the bounded cache `vandermonde_inverse_rows`, keyed by
(q, points)) along the interpolation chain, so no system is eliminated, and
the plan yields u alone.  Over GF(q) every plan runs as one packed product
(`PrimeField.compile_plan`).  The support has M entries and the joint-rank
verdict costs O(rows * M^2) in pure Python, so M is capped at MAX_FILE_SIZE.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import lagrange_row, next_prime, prime_field, vandermonde_inverse_rows
from ..precode import coefficients
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    PlanBuilder,
    PlanCache,
    RepairPlan,
    RepairTranscript,
    Scheme,
    SchemeParams,
)


MAX_FILE_SIZE = 1 << 16  # largest M = k(2d+t-k) a scheme is built for

# (params, xi, yi) -> `_monomial_row`: at most n^2 points per params, so
# 4096 entries hold every point of one params up to n = 64.  A row of
# M = k(2d+t-k) ints takes 8M + 56 bytes while q <= 257: 0.2 KB at the
# benchmark's (7,3,4,2) (M = 21), 0.6 KB at (20,4,8,4) (M = 64), 2.3 MB
# for 4096 of those.  The stored and download row tables keep these tuples.
MONOMIAL_ROWS = PlanCache(4096)


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

    def _monomial_row(self, xi: int, yi: int) -> tuple[int, ...]:
        """The row x^i y^j of the point (x_xi, y_yi) over the r then the u
        support, built once per point and params (`MONOMIAL_ROWS`): the
        stored and download rows of every node are such rows."""
        return MONOMIAL_ROWS.get((self._key, xi, yi), self._build_monomial_row, xi, yi)

    def _build_monomial_row(self, xi: int, yi: int) -> tuple[int, ...]:
        q = self.field.p
        x = self.x_points[xi - 1]
        y = self.y_points[yi - 1]
        xp, yp = [1], [1]
        for _ in range(self.params.d + self.params.t - 1):  # no degree reaches d+t
            xp.append(xp[-1] * x % q)
            yp.append(yp[-1] * y % q)
        return tuple(xp[i] * yp[j] % q for i, j in self.r_support + self.u_support)

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        return self._encode_nodes(coefficients(u, r))

    def _encode_plan(self, b=None) -> RepairPlan:
        """F at each stored point in two stages: the Y-polynomial of each
        X-degree i at y (its Y powers over its coefficients: one step per
        (i, y)), then those values at x (the X powers: one step per point)."""
        q, k, d, t = self.field.p, self.params.k, self.params.d, self.params.t
        b = b or PlanBuilder(self.alpha, self.field)
        slot = {ij: b.symbol(0, j) for j, ij in enumerate(self.r_support + self.u_support)}
        rows = [tuple(slot[(i, j)] for j in range(d + t if i < k else k)) for i in range(d)]
        # node i's y: the Y-polynomial of each X-degree there (every y is a node's own)
        inner = {}
        for yi, y in enumerate(self.y_points, 1):
            powers = tuple(pow(y, j, q) for j in range(d + t))
            inner[yi] = tuple(b.step(powers if i < k else powers[:k], row)
                              for i, row in enumerate(rows))
        x_powers = [tuple(pow(x, i, q) for i in range(d)) for x in self.x_points]
        value: dict[tuple[int, int], int] = {}  # point -> the slot of F there
        results = []
        for i in range(1, self.params.n + 1):
            slots = []
            for pt in self._stored_points(i):
                slot = value.get(pt)
                if slot is None:
                    slot = value[pt] = b.step(x_powers[pt[0] - 1], inner[pt[1]])
                slots.append(slot)
            results.append((i, slots))
        return b.plan(results)

    def _row_points(self, i: int) -> tuple[int, ...]:
        """The d+t points y_* at which node i stores its row polynomial f_i."""
        return tuple(self.y_points[self._wrap(i, s) - 1]
                     for s in range(self.params.d + self.params.t))

    def _col_points(self, i: int) -> tuple[int, ...]:
        """The d points x_* at which node i stores its column polynomial g_i;
        x_i first, whose value F(x_i, y_i) opens the row segment."""
        return tuple(self.x_points[self._wrap(i, s) - 1] for s in range(self.params.d))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        return self._decode(contents)

    def _reconstruct_plan(self, ids: tuple[int, ...], b=None) -> RepairPlan:
        """u by the interpolation chain, each step a closed-form inverse
        Vandermonde row: f_i(Y) (degree < d+t) and g_i(X) (degree < d) of
        each node from its stored values; phi_j(X), the X-polynomial of Y^j,
        for j >= k (degree < k) over the nodes' x from the f_i; then, per
        X-degree a < d, the phi_j of j < k over the nodes' y from the
        residues of the g_i less the phi_j of j >= k."""
        q, k, d, t = self.field.p, self.params.k, self.params.d, self.params.t
        b = b or PlanBuilder(self.secure_size, self.field)
        high, rows, cols = range(k, d + t), {}, {}
        for i in ids:  # f_i's coefficients of Y^j, j >= k, and all of g_i's
            vals = tuple(b.symbol(i, s) for s in range(d + t))
            v_inv = vandermonde_inverse_rows(q, self._row_points(i))
            rows[i] = {j: b.step(v_inv[j], vals) for j in high}
            vals = tuple(b.symbol(i, s) for s in (0, *range(d + t, 2 * d + t - 1)))
            cols[i] = [b.step(v, vals) for v in vandermonde_inverse_rows(q, self._col_points(i))]
        x_inv = vandermonde_inverse_rows(q, tuple(self.x_points[i - 1] for i in ids))
        phi = {j: [b.step(v, tuple(rows[i][j] for i in ids)) for v in x_inv] for j in high}
        residues = []
        for i in ids:
            y = self.y_points[i - 1]
            row = (1, *[-pow(y, j, q) % q for j in high])
            residues.append([b.step(row, (cols[i][a], *[phi[j][a] for j in high]))
                             for a in range(k)] + cols[i][k:])
        w_inv = vandermonde_inverse_rows(q, tuple(self.y_points[i - 1] for i in ids))
        for a in range(d):
            column = tuple(res[a] for res in residues)
            for j, v in enumerate(w_inv):
                phi.setdefault(j, [0] * d)[a] = b.step(v, column)
        return b.plan([(0, [phi[j][i] for i, j in self.u_support])])

    # -- repair ---------------------------------------------------------------------------

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        return self._repair(failed, survivors, helpers)

    def _repair_plan(self, failed: frozenset[int], helpers: tuple[int, ...], b=None) -> RepairPlan:
        """Every transfer and rebuilt symbol is the value at one point of a
        polynomial known by its values at others (`at`)."""
        q, d, t = self.field.p, self.params.d, self.params.t
        x, y = self.x_points, self.y_points
        newcomers = sorted(failed)
        b = b or PlanBuilder(self.alpha, self.field)

        def at(xs: tuple[int, ...], slots: Sequence[int], pt: int) -> int:
            """The slot of the value at pt of the polynomial of degree
            < len(xs) that takes the values `slots` at xs: a stored slot
            when pt is one of xs, else a step by the cached Lagrange row."""
            if pt in xs:
                return slots[xs.index(pt)]
            return b.step(lagrange_row(q, xs, pt), slots)

        # helper h's row segment (symbols 0 .. d+t-1) holds f_h at its row
        # points; its column values are symbol 0, then its col segment.  The
        # plan gathers only the symbols a step or a transfer reads
        stored = [(self._row_points(h), [b.symbol(h, s) for s in range(d + t)],
                   self._col_points(h), [b.symbol(h, 0)] +
                   [b.symbol(h, d + t + s) for s in range(d - 1)]) for h in helpers]
        for i in newcomers:
            for h, (row_pts, row_vals, col_pts, col_vals) in zip(helpers, stored):
                b.live[(h, i)] = [at(row_pts, row_vals, y[i - 1]),   # f_h(y_i)
                                  at(col_pts, col_vals, x[i - 1])]   # g_h(x_i)
        # newcomer j's column polynomial g_j takes the value f_h(y_j) at x_h
        helper_xs = tuple(x[h - 1] for h in helpers)
        col_evidence = {j: [b.live[(h, j)][0] for h in helpers] for j in newcomers}
        # cooperative phase: peers trade g_j(x_i)
        for i in newcomers:
            for j in newcomers:
                if j != i:
                    b.coop[(j, i)] = [at(helper_xs, col_evidence[j], x[i - 1])]
        results = []
        for i in newcomers:
            # f_i takes g_h(x_i) at y_h, g_j(x_i) at y_j and g_i(x_i) at y_i
            ys = [y[h - 1] for h in helpers]
            vals = [b.live[(h, i)][1] for h in helpers]
            for j in newcomers:
                if j != i:
                    ys.append(y[j - 1])
                    vals.append(b.coop[(j, i)][0])
            ys.append(y[i - 1])
            vals.append(at(helper_xs, col_evidence[i], x[i - 1]))
            ys = tuple(ys)
            row_seg = [at(ys, vals, pt) for pt in self._row_points(i)]
            col_seg = [at(helper_xs, col_evidence[i], pt) for pt in self._col_points(i)[1:]]
            results.append((i, row_seg + col_seg))
        return b.plan(results)

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
