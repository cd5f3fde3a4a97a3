"""Interference-alignment secure MSCR construction for k = t = 2, n = d + t.

Storage shape: alpha = d = n - 2 symbols per node, file (a, b) of M = 2*alpha
symbols; node 1 stores a, node 2 stores b, redundancy node i stores
a + B_i b with B_i = diag(w^{e(i,j)}) over GF(q), w a generator.

Secure file packing: Case 1, (l1,l2) = (1,0), Ms = alpha: a_j = r_j,
b_j = r_j + u_j (one-time pad per coordinate).  Case 2, (l1,l2) = (0,1),
Ms = alpha - 1: additionally b_alpha = r_{alpha+1}, pure randomness.  With
(0,0) the whole file is data.  Both guarantees hold over any number of
repair rounds (see the repair paragraphs below).

Field, exponent profile and per-node repair exponents e_v come from a
two-entry table, `_PLACEMENTS`:

    n = 4 (alpha = 2):  q = 7,  profile "arithmetic",  e_v = (0, 0, 2, 3)
    n = 5 (alpha = 3):  q = 11, profile "vandermonde", e_v = (0, 1, 2, 4, 1)

Each entry is the smallest odd prime q, then the first profile in
("arithmetic", "vandermonde"), then the lexicographically first exponents,
such that the placement is per-coordinate MDS, every repair pair's alignment
systems are invertible, and the secrecy rank checks pass: Case 1 for every
node, Case 2 for every E2 node repaired once with each partner.  The
exhaustive search that establishes the table lives in the tests as its
oracle; no n = 6 placement with q < 512 passes even its exponent-free rank
check, so every other n is rejected at once.  A field of
size n-1 cannot work: per coordinate the n-2 distinct multipliers cannot all
avoid -1, and a multiplier of -1 strips the pad off one secret symbol.  The
"arithmetic" profile e(i,j) = (i-1)+j yields pairwise-proportional B_i,
making cooperative repair infeasible for alpha >= 3, hence the "vandermonde"
profile e(i,j) = (i-1)*(j+1) at n = 5.

Repair of a failed pair {X, Y} (interference alignment after Suh &
Ramchandran, IEEE Trans. IT 2011): node v stores pa_v[j] a_j + pb_v[j] b_j;
write D_uv[j] = pa_u[j] pb_v[j] - pa_v[j] pb_u[j].  By Cramer's rule
survivor m stores s_m = (D_mY sX + D_Xm sY) / D_XY per coordinate.  Helper m
sends X the one symbol (w^(e_X j) / D_Xm[j]) . s_m, whoever the partner is;
its value is row_m . sX + c_X . sY with c_X[j] = w^(e_X j) / D_XY[j], so the
sY interference aligns onto c_X . sY.  Y sends one combination lam of its
own downloads whose sY part is a multiple of c_X . sY, and X's alpha+1
equations in {sX, c_X . sY} are regular, so each symbol of sX is a row of
their inverse (`_repair_strategy`, once per pair) over X's downloads.  One
symbol per helper and per peer: beta = beta' = 1, gamma = d + 1.  Encoding,
decoding and repair run as plans (`Scheme._run_plan`).

Modulo X's own content, every symbol a helper ever sends X is one and the
same functional (of b, or of a for node 2), and each peer's symbol is a
combination of X's content and that functional.  Over any lifetime X's view
therefore has rank at most alpha + 1 = |r|, and the Case-2 guarantee holds
after any number of repairs.  A target chosen per failed pair would make X
download a new functional with each partner and leak the secret (Goparaju,
El Rouayheb, Calderbank & Poor, NetCod 2013, on what repair downloads leak).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..field import Matrix, UnderdeterminedError, prime_field
from ..precode import coefficients
from .base import (
    NodeContent,
    ObservationMatrix,
    ParameterError,
    PlanBuilder,
    RepairInfeasibleError,
    RepairPlan,
    RepairTranscript,
    Scheme,
    SchemeParams,
)

# n -> (q, profile, repair exponent e_v of each node v); see the module
# docstring for why no other n appears
_PLACEMENTS = {4: (7, "arithmetic", (0, 0, 2, 3)), 5: (11, "vandermonde", (0, 1, 2, 4, 1))}


def _exponent(profile: str, i: int, j: int) -> int:
    """Exponent of w for redundancy node i (1-based) at coordinate j (0-based)."""
    if profile == "arithmetic":
        return (i - 1) + j
    if profile == "vandermonde":
        return (i - 1) * (j + 1)
    raise ValueError(profile)


def find_placement(n: int) -> tuple[int, str, tuple[int, ...]]:
    """(q, profile, repair exponents) of the placement table for this n."""
    try:
        return _PLACEMENTS[n]
    except KeyError:
        raise ParameterError(f"mscr-ia has a placement only for n in {{4, 5}}, not n={n}") from None


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
        q = find_placement(n)[0]
        return q, 1, d, (("shares", d),)  # alpha = d = d - k + t

    def __init__(self, params: SchemeParams):
        q, _, self.alpha, self.layout = self.node_format(params)
        self.params = params
        self.file_size = 2 * self.alpha
        self.beta = 1
        self.beta_prime = 1
        self.secure_size = {(1, 0): self.alpha, (0, 1): self.alpha - 1}.get(
            (params.l1, params.l2), self.file_size)

        self.field = prime_field(q)
        _, profile, self.exponents = _PLACEMENTS[params.n]
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
        self._strategies: dict = {}  # failed pair -> _repair_strategy's result
        # the secure file packing of the module docstring, stated once for
        # encode and the observation rows: file symbol s (a_0..a_{alpha-1},
        # then b_0..b_{alpha-1}) is the sum of the (r || u) coordinates in
        # _packing[s]
        alpha, ms, nr = self.alpha, self.secure_size, self.n_random
        if nr == 0:  # (a || b) = u
            self._packing = tuple((s,) for s in range(self.file_size))
        else:  # a_j = r_j, b_j = r_j + u_j, and in Case 2 the last b is pure r
            self._packing = (tuple((j,) for j in range(alpha))
                             + tuple((j, nr + j) if j < ms else (alpha,) for j in range(alpha)))

    # -- encode / reconstruct ----------------------------------------------------

    def encode(self, u: Sequence[int], r: Sequence[int]) -> list[NodeContent]:
        self._check_inputs(u, r)
        return self._encode_nodes(coefficients(u, r))

    def _encode_plan(self, b=None) -> RepairPlan:
        """The file symbols as the `_packing` sums over r || u, then node v's
        symbol j as pa_v[j] a_j + pb_v[j] b_j."""
        alpha, b = self.alpha, b or PlanBuilder(self.alpha, self.field)
        x = [b.symbol(0, i) for i in range(self.file_size)]
        file = [b.step((1,) * len(slots), [x[i] for i in slots]) for slots in self._packing]
        return b.plan((v, [b.step((self._pa[v][j], self._pb[v][j]), (file[j], file[alpha + j]))
                           for j in range(alpha)])
                      for v in range(1, self.params.n + 1))

    def reconstruct(self, contents: Sequence[NodeContent]) -> tuple[int, ...]:
        return self._decode(contents)

    def _reconstruct_plan(self, ids: tuple[int, ...], b=None) -> RepairPlan:
        """(a_j, b_j) from the two contacted nodes' symbol j by Cramer's rule,
        then u: u_j = b_j - a_j, or (a || b) itself when there is no pad."""
        p, (v, w), pa, pb = self.field.p, ids, self._pa, self._pb
        b = b or PlanBuilder(self.secure_size, self.field)
        xa, xb = [], []
        for j, det in enumerate(self._det(v, w)):
            inv, s = pow(det, -1, p), (b.symbol(v, j), b.symbol(w, j))
            xa.append(b.step((pb[w][j] * inv % p, -pb[v][j] * inv % p), s))
            xb.append(b.step((-pa[w][j] * inv % p, pa[v][j] * inv % p), s))
        if self.n_random == 0:
            return b.plan([(0, xa + xb)])
        return b.plan([(0, [b.step((p - 1, 1), ab) for ab in zip(xa[:self.secure_size], xb)])])

    # -- repair -------------------------------------------------------------------------

    def _det(self, u: int, v: int) -> list[int]:
        """D_uv[j] = pa_u[j] pb_v[j] - pa_v[j] pb_u[j] for each coordinate j."""
        p = self.field.p
        return [(au * bv - av * bu) % p
                for au, bu, av, bv in zip(self._pa[u], self._pb[u], self._pa[v], self._pb[v])]

    def _transfer(self, helper: int, newcomer: int) -> tuple[int, ...]:
        """Coefficients w^(e_N j) / D_Nm[j] of the one symbol helper m sends
        newcomer N, the same in every repair of N whoever its partner is."""
        p = self.field.p
        e = self.exponents[newcomer - 1]
        return tuple(pow(self.w, e * j, p) * pow(djm, -1, p) % p
                     for j, djm in enumerate(self._det(newcomer, helper)))

    def _repair_strategy(self, pair: tuple[int, int]) -> dict[int, tuple[tuple, tuple]]:
        """newcomer -> (lam, its (alpha+1)-system's inverse rows) for one failed pair.

        With partner P, helper m's symbol for N reads row_m . sN + c_N . sP
        with c_N[j] = w^(e_N j) / D_NP[j] and row_m[j] = transfer[j] D_mP[j] /
        D_NP[j].  The peer sends lam . (its downloads), whose sN part is
        sum(lam) c_P . sN and whose sP part is mu c_N . sP; the first
        nullspace lam that makes the system regular wins.  Cached per pair:
        the helpers are always every survivor.
        """
        if pair in self._strategies:
            return self._strategies[pair]
        f = self.field
        p, alpha = f.p, self.alpha
        helpers = [m for m in range(1, self.params.n + 1) if m not in pair]
        targets, rows = {}, {}
        for newcomer, peer in (pair, pair[::-1]):
            inv_dnp = [pow(x, -1, p) for x in self._det(newcomer, peer)]
            e = self.exponents[newcomer - 1]
            targets[newcomer] = [pow(self.w, e * j, p) * x % p for j, x in enumerate(inv_dnp)]
            rows[newcomer] = [[c * dmp * x % p for c, dmp, x in
                               zip(self._transfer(m, newcomer), self._det(m, peer), inv_dnp)]
                              for m in helpers]
        strategy = {}
        for newcomer, peer in (pair, pair[::-1]):
            null_rows = [[row[j] for row in rows[peer]] + [-targets[newcomer][j] % p]
                         for j in range(alpha)]
            for vec in Matrix(f, null_rows, ncols=alpha + 1).nullspace():
                lam, mu = vec[:alpha], vec[alpha]
                sys_rows = [row + [1] for row in rows[newcomer]]
                sys_rows.append([sum(lam) * c % p for c in targets[peer]] + [mu])
                try:
                    inverse = Matrix(f, sys_rows, ncols=alpha + 1).inverse()
                except UnderdeterminedError:
                    continue
                strategy[newcomer] = tuple(lam), tuple(map(tuple, inverse.rows))
                break
            else:
                raise RepairInfeasibleError(f"no alignment strategy for failed pair {list(pair)}")
        self._strategies[pair] = strategy
        return strategy

    def cooperative_repair(self, failed: Iterable[int],
                           survivors: Mapping[int, NodeContent],
                           helpers: Sequence[int] | None = None) -> RepairTranscript:
        return self._repair(failed, survivors, helpers)

    def _check_helpers(self, helpers: tuple[int, ...],
                       survivors: Mapping[int, NodeContent]) -> None:
        if set(helpers) != set(survivors):
            raise ParameterError(f"{self.name} repair contacts all d = n-t survivors")

    def _repair_plan(self, failed: frozenset[int], helpers: tuple[int, ...], b=None) -> RepairPlan:
        """Helper m sends each newcomer its `_transfer` row over m's symbols;
        the peer sends lam over its own downloads; each rebuilt symbol is a
        row of the inverse of the newcomer's system over its downloads."""
        pair = tuple(sorted(failed))
        strategy = self._repair_strategy(pair)
        b = b or PlanBuilder(self.alpha, self.field)
        for m in helpers:
            stored = [b.symbol(m, j) for j in range(self.alpha)]
            for newcomer in pair:
                b.live[(m, newcomer)] = [b.step(self._transfer(m, newcomer), stored)]
        results = []
        for newcomer, peer in (pair, pair[::-1]):
            lam, inverse = strategy[newcomer]
            b.coop[(peer, newcomer)] = [b.step(lam, [b.live[(m, peer)][0] for m in helpers])]
            downloads = [b.live[(m, newcomer)][0] for m in helpers] + b.coop[(peer, newcomer)]
            results.append((newcomer, [b.step(row, downloads) for row in inverse[:self.alpha]]))
        return b.plan(results)

    # -- observation ------------------------------------------------------------------------

    def _stored_rows(self, node: int) -> list[list[int]]:
        """Row j is pa_v[j] a_j + pb_v[j] b_j over (r || u)."""
        file = [[int(i in slots) for i in range(self.file_size)] for slots in self._packing]
        a, b = file[:self.alpha], file[self.alpha:]
        return [self._combine_rows((self._pa[node][j], self._pb[node][j]), (a[j], b[j]))
                for j in range(self.alpha)]

    def _combine_rows(self, coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        """sum_i coeffs[i] rows[i] over GF(p)."""
        out = [0] * self.file_size
        for c, row in zip(coeffs, rows):
            for idx, x in enumerate(row):
                out[idx] += c * x
        p = self.field.p
        return [x % p for x in out]

    def _download_rows(self, tr: RepairTranscript, newcomer: int) -> list[list[int]]:
        (peer,) = tr.failed - {newcomer}
        lam, _ = self._repair_strategy(tuple(sorted(tr.failed)))[newcomer]
        own_rows, peer_rows = [], []
        for m in tr.helpers:
            stored = self._node_rows(m)
            own_rows.append(self._combine_rows(self._transfer(m, newcomer), stored))
            peer_rows.append(self._combine_rows(self._transfer(m, peer), stored))
        # the peer's one cooperative symbol combines its own phase-1 downloads
        return own_rows + [self._combine_rows(lam, peer_rows)]

    def observation_matrix(self, e1: Iterable[int], e2: Iterable[int],
                           transcripts: Sequence[RepairTranscript] = ()) -> ObservationMatrix:
        return self._linear_observation(e1, e2, transcripts)
