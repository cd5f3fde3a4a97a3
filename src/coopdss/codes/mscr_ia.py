"""Interference-alignment secure MSCR construction for k = t = 2, n = d + t.

Storage shape: alpha = d = n - 2 symbols per node, file (a, b) of M = 2*alpha
symbols; node 1 stores a, node 2 stores b, redundancy node i stores
a + B_i b with B_i = diag(w^{e(i,j)}) over GF(q), w a generator.

Secure file packing: Case 1, (l1,l2) = (1,0), Ms = alpha: a_j = r_j,
b_j = r_j + u_j (one-time pad per coordinate).  Case 2, (l1,l2) = (0,1),
Ms = alpha - 1: additionally b_alpha = r_{alpha+1}, pure randomness.  With
(0,0) the whole file is data.  The Case-2 guarantee covers one repair round
of the E2 node: repaired again with a different partner, it downloads a
second, independent combination and one secret symbol leaks (n = 4, E2 = {1},
rounds {1,2} then {1,3}: leakage 1, by rank and by brute force alike).

Field and exponent profile come from a two-entry table, `_PLACEMENTS`:

    n = 4 (alpha = 2):  q = 7,  profile "arithmetic"
    n = 5 (alpha = 3):  q = 11, profile "vandermonde"

Each entry is the smallest odd prime q, and then the first profile in
("arithmetic", "vandermonde"), such that the placement is per-coordinate MDS,
every repair pair's alignment systems are invertible, and the Case-1/Case-2
secrecy rank checks pass for every placement.  The exhaustive search that
establishes the table lives in the tests as its oracle; it finds no placement
for n = 6 with q < 512, so every other n is rejected at once.  A field of
size n-1 cannot work: per coordinate the n-2 distinct multipliers cannot all
avoid -1, and a multiplier of -1 strips the pad off one secret symbol.  The
"arithmetic" profile e(i,j) = (i-1)+j yields pairwise-proportional B_i,
making cooperative repair infeasible for alpha >= 3, hence the "vandermonde"
profile e(i,j) = (i-1)*(j+1) at n = 5.

Repair of a failed pair {X, Y}: write each survivor's content as
E_m sX + F_m sY (diagonal E_m, F_m).  For X's side every helper m sends
(1/F_m) . s_m, aligning the sY interference onto the all-ones functional
z.sY; Y (after its own phase-1 downloads) sends one combination whose
sY part is again proportional to z.  X then solves alpha+1 equations in
{sX, z.sY}.  One symbol per helper and per peer: beta = beta' = 1,
gamma = d + 1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, prime_field
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    RepairInfeasibleError,
    RepairTranscript,
    Scheme,
    SchemeParams,
)

# n -> (q, profile); see the module docstring for why no other n appears
_PLACEMENTS = {4: (7, "arithmetic"), 5: (11, "vandermonde")}


def _exponent(profile: str, i: int, j: int) -> int:
    """Exponent of w for redundancy node i (1-based) at coordinate j (0-based)."""
    if profile == "arithmetic":
        return (i - 1) + j
    if profile == "vandermonde":
        return (i - 1) * (j + 1)
    raise ValueError(profile)


def find_placement(n: int) -> tuple[int, str]:
    """(q, profile) of the placement table for this n."""
    try:
        return _PLACEMENTS[n]
    except KeyError:
        raise ParameterError(f"mscr-ia has a placement only for n in {{4, 5}}, not n={n}") from None


def _solve2(p: int, m00: int, m01: int, m10: int, m11: int,
            v0: int, v1: int) -> tuple[int, int]:
    """Cramer's rule for [[m00, m01], [m10, m11]] x = (v0, v1) over GF(p)."""
    inv = pow(m00 * m11 - m01 * m10, -1, p)
    return (v0 * m11 - m01 * v1) * inv % p, (m00 * v1 - v0 * m10) * inv % p


class MscrIaScheme(Scheme):
    """Scalar MSCR code for k = t = 2 with one-time-pad secrecy."""

    name = "mscr-ia"

    @classmethod
    def node_format(cls, params: SchemeParams) -> tuple[int, int, int, tuple[tuple[str, int], ...]]:
        params.validate()
        n, k, d, t = params.n, params.k, params.d, params.t
        if k != 2 or t != 2:
            raise ParameterError(f"{cls.name} requires k = t = 2")
        if n != d + t:
            raise ParameterError(f"{cls.name} requires n = d + t")
        if (params.l1, params.l2) not in ((0, 0), (1, 0), (0, 1)):
            raise ParameterError(f"{cls.name} supports (l1,l2) in {{(0,0),(1,0),(0,1)}}")
        q, _ = find_placement(n)
        return q, 1, d, (("shares", d),)  # alpha = d = d - k + t

    def __init__(self, params: SchemeParams):
        q, _, self.alpha, self.layout = self.node_format(params)
        self.params = params
        self.file_size = 2 * self.alpha
        self.beta = 1
        self.beta_prime = 1
        if (params.l1, params.l2) == (1, 0):
            self.secure_size = self.alpha
        elif (params.l1, params.l2) == (0, 1):
            self.secure_size = self.alpha - 1
        else:
            self.secure_size = self.file_size

        self.field = prime_field(q)
        self.profile = profile = _PLACEMENTS[params.n][1]
        self.w = self.field.primitive_element()
        # multipliers[i][j] for redundancy node i = 1..alpha (global id i+2)
        self.multipliers = [
            [pow(self.w, _exponent(profile, i, j), q) for j in range(self.alpha)]
            for i in range(1, self.alpha + 1)
        ]
        # per-node (a-part, b-part) diagonal coefficient vectors
        self._pa = {1: [1] * self.alpha, 2: [0] * self.alpha}
        self._pb = {1: [0] * self.alpha, 2: [1] * self.alpha}
        for i in range(1, self.alpha + 1):
            self._pa[i + 2] = [1] * self.alpha
            self._pb[i + 2] = self.multipliers[i - 1][:]
        self._strategy_cache: dict = {}  # (pair, helpers) -> _repair_strategy's result

    # -- file packing -------------------------------------------------------------

    def _file_vectors(self, u: Sequence[int], r: Sequence[int]) -> tuple[list[int], list[int]]:
        f = self.field
        alpha = self.alpha
        l1, l2 = self.params.l1, self.params.l2
        if (l1, l2) == (0, 0):
            return list(u[:alpha]), list(u[alpha:])
        a = list(r[:alpha])
        if (l1, l2) == (1, 0):
            b = [f.add(r[j], u[j]) for j in range(alpha)]
        else:
            b = [f.add(r[j], u[j]) for j in range(alpha - 1)] + [r[alpha]]
        return a, b

    def _ab_rows(self) -> tuple[list[list[int]], list[list[int]]]:
        """Rows of (a_j, b_j) over (u || r), for observation building."""
        alpha = self.alpha
        ms, nr = self.secure_size, self.n_random
        l1, l2 = self.params.l1, self.params.l2

        def unit(n_cols, idx):
            row = [0] * n_cols
            row[idx] = 1
            return row

        a_rows, b_rows = [], []
        if (l1, l2) == (0, 0):
            for j in range(alpha):
                a_rows.append((unit(ms, j), [0] * nr))
                b_rows.append((unit(ms, alpha + j), [0] * nr))
        elif (l1, l2) == (1, 0):
            for j in range(alpha):
                a_rows.append(([0] * ms, unit(nr, j)))
                b_rows.append((unit(ms, j), unit(nr, j)))
        else:
            for j in range(alpha):
                a_rows.append(([0] * ms, unit(nr, j)))
                if j < alpha - 1:
                    b_rows.append((unit(ms, j), unit(nr, j)))
                else:
                    b_rows.append(([0] * ms, unit(nr, alpha)))
        return a_rows, b_rows

    # -- encode / reconstruct --------------------------------------------------------

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        f = self.field
        a, b = self._file_vectors(u, r)
        nodes = [NodeContent(1, tuple(a), self.layout), NodeContent(2, tuple(b), self.layout)]
        for i in range(1, self.alpha + 1):
            syms = tuple(f.add(a[j], f.mul(self.multipliers[i - 1][j], b[j]))
                         for j in range(self.alpha))
            nodes.append(NodeContent(i + 2, syms, self.layout))
        return nodes

    def _solve_file(self, c1: NodeContent, c2: NodeContent) -> tuple[list[int], list[int]]:
        pa1, pb1 = self._pa[c1.node_id], self._pb[c1.node_id]
        pa2, pb2 = self._pa[c2.node_id], self._pb[c2.node_id]
        a, b = [], []
        for j in range(self.alpha):
            aj, bj = _solve2(self.field.p, pa1[j], pb1[j], pa2[j], pb2[j],
                             c1.symbols[j], c2.symbols[j])
            a.append(aj)
            b.append(bj)
        return a, b

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        f = self.field
        by_id = {c.node_id: c for c in contents}
        if len(by_id) < 2:
            raise ParameterError("need k=2 distinct nodes")
        ids = sorted(by_id)[:2]
        a, b = self._solve_file(by_id[ids[0]], by_id[ids[1]])
        l1, l2 = self.params.l1, self.params.l2
        if (l1, l2) == (0, 0):
            return tuple(a + b)
        if (l1, l2) == (1, 0):
            return tuple(f.sub(b[j], a[j]) for j in range(self.alpha))
        return tuple(f.sub(b[j], a[j]) for j in range(self.alpha - 1))

    # -- repair -------------------------------------------------------------------------

    def _ef_diagonals(self, failed_pair: tuple[int, int]) -> dict[int, tuple[list[int], list[int]]]:
        """Per-survivor diagonals (E_m, F_m) with s_m = E_m sX + F_m sY."""
        pa, pb = self._pa, self._pb
        x_id, y_id = failed_pair
        out = {}
        for m in range(1, self.params.n + 1):
            if m in failed_pair:
                continue
            e_diag, f_diag = [], []
            for j in range(self.alpha):
                em, fm = _solve2(self.field.p, pa[x_id][j], pa[y_id][j], pb[x_id][j], pb[y_id][j],
                                 pa[m][j], pb[m][j])
                e_diag.append(em)
                f_diag.append(fm)
            out[m] = (e_diag, f_diag)
        return out

    def _geometric_target(self, e: int) -> list[int]:
        """Deterministic alignment-target family: (w^(e*j))_j, e = 0 first."""
        f = self.field
        return [f.pow(self.w, e * j) for j in range(self.alpha)]

    def _helper_rows(self, ef, helpers, target, recover_first):
        """sX-side rows of the helper downloads for the given target vector.

        Helper m sends (target / F_m) . s_m  (resp. / E_m), whose value is
        row_m . s_recovered + target . s_other.
        """
        f = self.field
        rows = []
        for m in helpers:
            e_diag, f_diag = ef[m]
            num, den = (e_diag, f_diag) if recover_first else (f_diag, e_diag)
            rows.append([f.mul(target[j], f.div(num[j], den[j]))
                         for j in range(self.alpha)])
        return rows

    def _peer_combo(self, peer_rows: list[list[int]], target: list[int]):
        """(lambda, mu) with sum_m lambda_m peer_rows[m] = mu * target."""
        f = self.field
        d = len(peer_rows)
        sys_rows = [[peer_rows[m][j] for m in range(d)] + [f.neg(target[j])]
                    for j in range(self.alpha)]
        return [(vec[:d], vec[d]) for vec in Matrix(f, sys_rows, ncols=d + 1).nullspace()]

    def _repair_strategy(self, pair: tuple[int, int], helpers: tuple[int, ...]):
        """Deterministic alignment data for one failed pair.

        Returns (cx, cy, (lam_x, mu_x), (lam_y, mu_y)): the X/Y target
        vectors and the peer combinations (the X entry is the combination the
        peer Y applies to its own downloads for X's benefit).  First working
        candidate in the fixed search order wins; cached per (pair, helpers).
        """
        key = (pair, helpers)
        cache = self._strategy_cache
        if key in cache:
            return cache[key]
        f = self.field
        alpha = self.alpha
        ef = self._ef_diagonals(pair)
        span = min(f.p - 1, 8)  # bounded deterministic target family
        for ex in range(span):
            cx = self._geometric_target(ex)
            rows_x = self._helper_rows(ef, helpers, cx, recover_first=True)
            for ey in range(span):
                cy = self._geometric_target(ey)
                rows_y = self._helper_rows(ef, helpers, cy, recover_first=False)
                combo_x = self._resolve_side(rows_x, rows_y, cx, cy)
                if combo_x is None:
                    continue
                combo_y = self._resolve_side(rows_y, rows_x, cy, cx)
                if combo_y is None:
                    continue
                cache[key] = (cx, cy, combo_x, combo_y)
                return cache[key]
        raise RepairInfeasibleError(
            f"no alignment strategy for failed pair {sorted(pair)}")

    def _resolve_side(self, own_rows, peer_rows, own_target, peer_target):
        """Pick (lambda, mu) making the (alpha+1)-system for this side regular."""
        f = self.field
        alpha = self.alpha
        for lam, mu in self._peer_combo(peer_rows, own_target):
            lam_sum = f.zero
            for lm in lam:
                lam_sum = f.add(lam_sum, lm)
            sys_rows = [row + [f.one] for row in own_rows]
            sys_rows.append([f.mul(lam_sum, peer_target[j]) for j in range(alpha)] + [mu])
            if Matrix(f, sys_rows, ncols=alpha + 1).rank() == alpha + 1:
                return lam, mu
        return None

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        f = self.field
        alpha = self.alpha
        failed = self._validate_failed(failed, survivors)
        helpers = self._pick_helpers(failed, survivors, helpers)
        if set(helpers) != set(survivors):
            raise ParameterError(f"{self.name} repair contacts all d = n-t survivors")
        x_id, y_id = sorted(failed)
        ef = self._ef_diagonals((x_id, y_id))
        cx, cy, (lam_x, mu_x), (lam_y, mu_y) = self._repair_strategy((x_id, y_id), helpers)
        # phase 1 downloads
        vals_x, vals_y = {}, {}
        live: dict[tuple[int, int], tuple[int, ...]] = {}
        for m in helpers:
            e_diag, f_diag = ef[m]
            vx = [f.div(cx[j], f_diag[j]) for j in range(alpha)]
            vy = [f.div(cy[j], e_diag[j]) for j in range(alpha)]
            vals_x[m] = f.dot(vx, survivors[m].symbols)
            vals_y[m] = f.dot(vy, survivors[m].symbols)
            live[(m, x_id)] = (vals_x[m],)
            live[(m, y_id)] = (vals_y[m],)
        rows_x = self._helper_rows(ef, helpers, cx, recover_first=True)
        rows_y = self._helper_rows(ef, helpers, cy, recover_first=False)
        solved = {}
        coop: dict[tuple[int, int], tuple[int, ...]] = {}
        for target, own_rows, own_vals, peer_vals, peer, own_c, peer_c, lam, mu in (
                (x_id, rows_x, vals_x, vals_y, y_id, cx, cy, lam_x, mu_x),
                (y_id, rows_y, vals_y, vals_x, x_id, cy, cx, lam_y, mu_y)):
            peer_val = f.zero
            for lm, m in zip(lam, helpers):
                if lm != f.zero:
                    peer_val = f.add(peer_val, f.mul(lm, peer_vals[m]))
            lam_sum = f.zero
            for lm in lam:
                lam_sum = f.add(lam_sum, lm)
            sys_rows = [row + [f.one] for row in own_rows]
            sys_rows.append([f.mul(lam_sum, peer_c[j]) for j in range(alpha)] + [mu])
            rhs = [own_vals[m] for m in helpers] + [peer_val]
            sol = Matrix(f, sys_rows, ncols=alpha + 1).solve(rhs)
            solved[target] = sol[:alpha]
            coop[(peer, target)] = (peer_val,)
        results = [NodeContent(x_id, tuple(solved[x_id]), self.layout),
                   NodeContent(y_id, tuple(solved[y_id]), self.layout)]
        return RepairTranscript(failed=failed, helpers=helpers,
                                live_transfers=live, coop_transfers=coop,
                                results=tuple(results))

    # -- observation ------------------------------------------------------------------------

    def _stored_rows(self, node: int) -> list[tuple[list[int], list[int]]]:
        """(u-row, r-row) pairs for node's stored symbols."""
        f = self.field
        a_rows, b_rows = self._ab_rows()
        out = []
        for j in range(self.alpha):
            pa, pb = self._pa[node][j], self._pb[node][j]
            au = [(pa * x + pb * y) % f.p for x, y in zip(a_rows[j][0], b_rows[j][0])]
            ar = [(pa * x + pb * y) % f.p for x, y in zip(a_rows[j][1], b_rows[j][1])]
            out.append((au, ar))
        return out

    def _combine_rows(self, coeffs: Sequence[int],
                      rows: Sequence[tuple[list[int], list[int]]]):
        f = self.field
        ms, nr = self.secure_size, self.n_random
        au, ar = [0] * ms, [0] * nr
        for c, (ru, rr) in zip(coeffs, rows):
            if c:
                for idx in range(ms):
                    au[idx] = (au[idx] + c * ru[idx]) % f.p
                for idx in range(nr):
                    ar[idx] = (ar[idx] + c * rr[idx]) % f.p
        return au, ar

    def _download_rows(self, tr: RepairTranscript,
                       newcomer: int) -> list[tuple[list[int], list[int]]]:
        f = self.field
        alpha = self.alpha
        x_id, y_id = sorted(tr.failed)
        ef = self._ef_diagonals((x_id, y_id))
        cx, cy, combo_x, combo_y = self._repair_strategy((x_id, y_id), tr.helpers)
        recover_first = newcomer == x_id
        own_c, peer_c = (cx, cy) if recover_first else (cy, cx)
        lam, _ = combo_x if recover_first else combo_y
        own_rows, peer_rows = [], []
        for m in tr.helpers:
            e_diag, f_diag = ef[m]
            own_den, peer_den = (f_diag, e_diag) if recover_first else (e_diag, f_diag)
            stored = self._stored_rows(m)
            own_rows.append(self._combine_rows(
                [f.div(own_c[j], own_den[j]) for j in range(alpha)], stored))
            peer_rows.append(self._combine_rows(
                [f.div(peer_c[j], peer_den[j]) for j in range(alpha)], stored))
        # the peer's one cooperative symbol combines its own phase-1 downloads
        return own_rows + [self._combine_rows(lam, peer_rows)]

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._linear_observation(*self._observation_rows(e1, e2, transcripts))
