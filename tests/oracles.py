"""Dense reference forms of maps the program runs in closed form.

The Gabidulin precoding map is the Moore matrix of the canonical basis
1, X, ..., X^(m-1) of GF(p^m).  The program applies it, and its inverse,
from a per-field table of GF(p)-scaled monomials
(`coopdss.field.basis_moore_apply`, `basis_moore_inverse_apply`); here both
are built as `Matrix` objects from `moore_matrix`, i.e. from `frobenius`, and
cached per field, so the tables have an independent oracle.

Every observation holds one matrix.  The Gabidulin schemes' view
(`PointObservation`) holds only the GF(p) evaluation points; `linear_view`
builds its GF(p^M) Moore rows, the [A_r | A_u] that
`coopdss.secrecy.joint_rank_leakage` eliminates, so the point-rank verdict
has an extension-field oracle.  `observation_rows_and_labels` walks the
row order once for rows and labels together, the reference for a view's
labels, which the program walks apart from its rows on first use.  Its
download rows are `download_rows`, each scheme's closed form of what a
newcomer downloads (mbcr-exact's from `mbcr_exact_z_point`): the reference
for the rows the program derives by running its repair plan on stored rows
(`Scheme._round_rows`).  It
checks its arguments with `validate_eaves`, which runs every eavesdropper
check on every call: the reference for the program's one-pass check and
its refusals.  `a_u`
and `a_r` slice a linear view's [A_r | A_u] into its secret and random
columns, for the checks that replay e = A_u u + A_r r.

The mbcr-exact observation points are written in closed form by the scheme;
`mbcr_exact_stored_rows` and `mbcr_exact_z_point` build them by combining
the primary points coordinate by coordinate.

`normalize_per_digit` is the per-digit pass that `ExtField._normalize`
replaces with word-parallel folds (unpack every word, take it mod p, pack
again).  A program plan is its compiled function alone; `DescribingBuilder`
builds a scheme's plan as a `Plan`, its renumbered inputs, steps and
records beside that function, for the tests that read a plan's shape
(`describe`).  `run_steps` interprets a plan's steps one at a time, the reference
for the straight-line code that `compile_plan` generates (`plan_values`
and `compile_values` feed a compiled plan a value list and flatten its
records for that comparison), and `random_symbols` draws from the `splitmix64` generator one
`draw_mod` call per coordinate, the reference for the inline loop of
`coopdss.precode.random_symbols`.

`REFERENCE_REPAIRS` repair on the values, one `dot` or `lagrange_at` per
symbol as the data arrives, and mscr-ia and insecure-demo by `Matrix.solve`
of each newcomer's system (mscr-ia's from `mscr_ia_systems`, the strategy
search with a rank check): the reference for the cached repair plans that
the program runs (`coopdss.codes.base.PlanBuilder`).  `REFERENCE_ENCODES` and
`REFERENCE_RECONSTRUCTS` are the same for encoding and decoding, the loops
the schemes ran before their encode and reconstruct plans: mbcr-exact's
primaries and z values, mscr-dk's shares and Vandermonde solve (each decode
applying the whole inverse Moore map, then slicing u), mbcr-bivariate's
Horner evaluation and interpolation chain, mscr-ia's file packing and
Cramer's rule per coordinate, and insecure-demo's rows and 2x2 solve.
`segment` reads a node's layout segment by name.

`brute_force_int64` enumerates every joint (u, r) assignment with one
int64 code each: every probed coordinate row, zero and repeated ones
included, is folded in, and the codes are relabelled with `np.unique`
before they could overflow; the support of e is counted for each u.  It is
the reference for `coopdss.secrecy.brute_force_leakage`, which counts the
cosets of the same probed map from the u part and the r part alone, in
narrow codes.
"""

from operator import mul
from types import SimpleNamespace
from typing import Callable, NamedTuple

from coopdss.codes import base as codes_base
from coopdss.codes.base import (NodeContent, ObservationMatrix, ParameterError, PlanBuilder,
                                PointObservation, RepairTranscript)
from coopdss.codes.mbcr_exact import _phi_block_rows
from coopdss.field import (Matrix, PrimeField, basis_moore_inverse_apply, ext_field,
                           lagrange_row, moore_matrix, vandermonde_inverse_rows)
from coopdss.precode import splitmix64
from coopdss.secrecy import SecrecyVerdict, _exact_log, _probed_map

_CODE_LIMIT = 1 << 62  # codes stay below this, clear of int64 overflow


def normalize_per_digit(field, v):
    """Every digit of the packed int v (m words of an ExtField, each below
    2^db) into [0, p), one digit at a time."""
    words = field._words
    digits = words.unpack(v.to_bytes(words.size, "little"))
    return int.from_bytes(words.pack(*[d % field.p for d in digits]), "little")


def run_steps(field, steps, vals):
    """For each (row, src) step in order, append to `vals` the dot of the
    GF(p) row with the values at the slots `src` of `vals`, so a step may
    read a slot an earlier step appended.  GF(p) reduces each sum by % p;
    GF(p^m) an L-term sum (digits at most L (p-1)^2) by the field's
    `_step_plan` for L, and a row past the word bound by `dot`."""
    p, get, append = field.p, vals.__getitem__, vals.append
    for row, src in steps:
        plan = field._step_plan(len(row)) if field.degree > 1 else None
        if plan == ():
            append(field.dot(row, [vals[j] for j in src]))
            continue
        v = sum(map(mul, row, map(get, src)))
        if plan is None:
            append(v % p)
            continue
        folds, (c, s, q) = plan
        for h, hi, r, lo in folds:
            v = ((v >> h) & hi) * r + (v & lo)
        append(v - p * (((v * c) >> s) & q))


def run_on_values(run, inputs, vals):
    """A compiled plan function `run` (`compile_plan`) fed value j at input
    `inputs[j]` = (node, index), its records flattened into one tuple in
    record order (live, coop, results): the value-level form the tests
    compare with `run_steps`."""
    nodes = {}
    for (h, s), v in zip(inputs, vals):
        symbols = nodes.setdefault(h, [])
        symbols += [None] * (s + 1 - len(symbols))
        symbols[s] = v
    live, coop, results = run({h: SimpleNamespace(symbols=symbols) for h, symbols in nodes.items()})
    return tuple(v for group in (live.values(), coop.values(), (v for _, v in results))
                 for record in group for v in record)


def plan_values(plan, vals):
    """`plan.run` fed the value list `vals` in the order of `plan.inputs`,
    flattened (`run_on_values`)."""
    return run_on_values(plan.run, plan.inputs, vals)


class Plan(NamedTuple):
    """A plan as `PlanBuilder._renumbered` lays it out, with `run`, the
    field's compiled function of it, the program's whole plan."""

    inputs: tuple
    steps: tuple
    live: tuple
    coop: tuple
    results: tuple
    run: Callable


class DescribingBuilder(PlanBuilder):
    """`PlanBuilder` whose `plan` returns the `Plan` it compiles."""

    def plan(self, results):
        parts = self._renumbered(results)
        return Plan(*parts, self.field.compile_plan(*parts))


def describe(scheme, kind, *args):
    """The scheme's `kind` plan ("encode", "reconstruct" over the ids
    `args[0]`, or "repair" of (failed, helpers) `args`) as a `Plan`.  A
    decoding's one record holds the M evaluations of a Gabidulin scheme,
    u otherwise."""
    width = scheme.alpha
    if kind == "reconstruct":
        width = scheme.file_size if hasattr(scheme, "base") else scheme.secure_size
    return getattr(scheme, f"_{kind}_plan")(*args, DescribingBuilder(width, scheme.field))


def compile_values(field, n_in, steps, out):
    """`field.compile_plan` of `n_in` inputs, `steps` and the slots `out` as
    one record, as a function of the `n_in` input values (input j read as
    symbol j of node 0) returning the values of `out` as one tuple."""
    inputs = tuple((0, j) for j in range(n_in))
    run = field.compile_plan(inputs, steps, (), (), ((0, tuple(out)),))

    def values(vals):
        return run_on_values(run, inputs, vals)
    values.__qualname__ = run.__qualname__
    return values


def draw_mod(stream, p):
    """One coordinate: the first word of the stream below the largest
    multiple of p, mod p (rejection sampling)."""
    limit = (1 << 64) - ((1 << 64) % p)
    while True:
        w = next(stream)
        if w < limit:
            return w % p


def random_symbols(field, count, seed):
    """`count` field elements from the `splitmix64(seed)` generator,
    coordinate 0 first, one `draw_mod` per coordinate."""
    stream = splitmix64(seed)
    p = field.char
    return [field.from_coords([draw_mod(stream, p) for _ in range(field.degree)])
            for _ in range(count)]


def power(field, a, e):
    """a^e for e >= 0, by square and multiply with `field.mul`."""
    result = field.one
    while e:
        if e & 1:
            result = field.mul(result, a)
        a = field.mul(a, a)
        e >>= 1
    return result


def linear_view(obs):
    """The observation as e = A_u u + A_r r, its matrix [A_r | A_u].  An
    `ObservationMatrix` is returned as it is; for a `PointObservation`, row j
    of [A_r | A_u] is the Moore row (h_j, h_j^p, ..., h_j^(p^(M-1))) over
    GF(p^M) of its point h_j."""
    if not isinstance(obs, PointObservation):
        return obs
    points = obs.matrix
    f = ext_field(points.field.p, points.ncols)  # the scheme's field: fixed by (p, M)
    rows = moore_matrix(f, [f.from_coords(pt) for pt in points.rows], points.ncols).rows
    return ObservationMatrix(Matrix(f, rows, ncols=points.ncols), obs.n_random, obs.labels)


def validate_eaves(scheme, e1, e2, transcripts):
    """E1 and E2 as sorted tuples of distinct ids, every check run on every
    call: the reference for `Scheme._validate_eaves`, whose pass with no E2
    and no rounds is a range check and a sort, with the same refusals."""
    n, d, t, ids = scheme.params.n, scheme.params.d, scheme.params.t, scheme._ids
    e1, e2 = set(e1), set(e2)
    if not ids.issuperset(e1) or not ids.issuperset(e2):
        raise ParameterError(f"eavesdropped node ids must lie in [1, {n}]")
    if not e1.isdisjoint(e2):
        raise ParameterError("E1 and E2 must be disjoint")
    unrepaired = e2.copy()
    for tr in transcripts:
        helpers = set(tr.helpers)
        if (len(tr.failed) != t or len(tr.helpers) != d or len(helpers) != d
                or not helpers.isdisjoint(tr.failed) or not ids.issuperset(tr.failed)
                or not ids.issuperset(helpers)):
            raise ParameterError(
                f"a repair needs t={t} failed ids and d={d} distinct helper ids, "
                f"all in [1, {n}] and no helper failed")
        unrepaired -= tr.failed
    if unrepaired:
        raise ParameterError(
            f"E2 nodes {sorted(unrepaired)} never appear as newcomers in the transcripts")
    return tuple(sorted(e1)), tuple(sorted(e2))


def node_rows(scheme, node):
    """The stored rows of `node`, the tuples of the scheme's `STORED_ROWS`
    entry, which a miss enters (`Scheme._row_entry`)."""
    return codes_base.STORED_ROWS.get((scheme._key, node), scheme._row_entry, node)[0]


def observation_rows_and_labels(scheme, e1, e2, transcripts=()):
    """The eavesdropper's rows and their labels in one eager walk of the
    shared row order, as views were built before their labels were walked
    on first use, after the reference checks (`validate_eaves`; a sequence
    of transcripts, walked twice): the reference for
    `ObservationMatrix.labels` and for the rows a view holds."""
    e1, e2 = validate_eaves(scheme, e1, e2, transcripts)
    rows, labels = [], []
    for node in e1 + e2:
        rows += node_rows(scheme, node)
        for idx in range(scheme.alpha):
            labels.append(("stored", node, idx))
    for rnd, tr in enumerate(transcripts):
        for i in sorted(tr.failed & set(e2)):
            rows += download_rows(scheme, tr.failed, tr.helpers, i)
            for h in tr.helpers:
                for idx in range(scheme.beta):
                    labels.append(("live", rnd, h, i, idx))
            for m in sorted(tr.failed - {i}):
                for idx in range(scheme.beta_prime):
                    labels.append(("coop", rnd, m, i, idx))
    return rows, labels


def a_u(obs):
    """A_u, the secret columns of an observation's [A_r | A_u]."""
    m, nr = obs.matrix, obs.n_random
    return Matrix(m.field, [row[nr:] for row in m.rows], ncols=obs.n_secret)


def a_r(obs):
    """A_r, the random columns of an observation's [A_r | A_u]."""
    m, nr = obs.matrix, obs.n_random
    return Matrix(m.field, [row[:nr] for row in m.rows], ncols=nr)


def basis_element(field, i):
    """X^i of GF(p^m), 0 <= i < m."""
    if not 0 <= i < field.degree:
        raise ValueError("basis index out of range")
    return field.from_coords([0] * i + [1])


def basis_elements(field, count):
    """First `count` canonical basis elements 1, X, X^2, ... of GF(p^m).

    Linearly independent over the base field by construction.
    """
    if count > field.degree:
        raise ValueError(f"requested {count} basis elements from degree-{field.degree} field")
    if isinstance(field, PrimeField):
        return [1][:count]
    return [basis_element(field, i) for i in range(count)]


# field -> [Moore matrix of the canonical basis, its inverse or None]
_BASIS_MOORE_CACHE = {}


def _basis_moore_entry(field):
    entry = _BASIS_MOORE_CACHE.get(field)
    if entry is None:
        m = field.degree
        entry = [moore_matrix(field, basis_elements(field, m), m), None]
        _BASIS_MOORE_CACHE[field] = entry
    return entry


def basis_moore_matrix(field):
    """m x m Moore matrix of the canonical basis 1, X, ..., X^(m-1) of GF(p^m).

    Built once per field and shared by every caller; treat it as read-only.
    """
    return _basis_moore_entry(field)[0]


def basis_moore_inverse(field):
    """Inverse of `basis_moore_matrix(field)`, in closed form: a scaled,
    permuted transpose of the Moore matrix B[i][j] = (X^i)^(p^j).

    The trace-dual basis of 1, X, ..., X^(m-1) (Lidl & Niederreiter,
    *Finite Fields*, ch. 2) is d_0 = 1/m and d_l = X^(m-l) / (m c) for
    0 < l < m, with X^m = c: Tr(X^e) = 0 unless m | e, Tr(1) = m, and p does
    not divide m.  With D[l][j] = d_l^(p^j), (B D^T)[i][l] =
    Tr(X^i d_l) = [i = l], so B^-1 = D^T.  Frobenius fixes the scales, so
    B^-1[i][l] = s_l B[(m - l) mod m][i] with s_0 = 1/m and s_l = 1/(m c):
    no elimination (`Matrix.inverse` is its test oracle).  Built on first
    request, then shared like the matrix itself.
    """
    entry = _basis_moore_entry(field)
    if entry[1] is None:
        moore = entry[0].rows
        m, p = field.degree, field.char
        scales = [pow(m, p - 2, p)]
        if m > 1:
            scales += [pow(m * field._binomial_c, p - 2, p)] * (m - 1)
        entry[1] = Matrix(field, [[field.scalar_mul(s, moore[-l % m][i])
                                   for l, s in enumerate(scales)]
                                  for i in range(m)], ncols=m)
    return entry[1]


def mbcr_exact_primary_points(scheme, i):
    """Points of mbcr-exact node i's d primary symbols: unit vectors on its
    x block, then its y-code column on each part-b group."""
    n, k, d = scheme.params.n, scheme.params.k, scheme.params.d
    m_total = scheme.file_size
    pts = []
    for s in range(k):  # x block: unit vectors
        v = [0] * m_total
        v[(i - 1) * k + s] = 1
        pts.append(v)
    for j in range(d - k):  # y values: V-combination of part-b group j
        v = [0] * m_total
        v[n * k + j * k:n * k + (j + 1) * k] = scheme.y_cols[i - 1]
        pts.append(v)
    return pts


def mbcr_exact_z_point(scheme, source, stored_at):
    """Point of the z value `source` stores at `stored_at`: its Phi column
    applied to source's primary points, scanning every coordinate of each
    primary point with a nonzero coefficient."""
    p = scheme.base.p
    prim = mbcr_exact_primary_points(scheme, source)
    v = [0] * scheme.file_size
    for s, c in enumerate(scheme.phi_cols[scheme._phi_col(source, stored_at)]):
        if c:
            row = prim[s]
            for idx in range(scheme.file_size):
                if row[idx]:
                    v[idx] = (v[idx] + c * row[idx]) % p
    return v


def mbcr_exact_stored_rows(scheme, i):
    """Points of all of mbcr-exact node i's symbols, in segment order."""
    others = [j for j in range(1, scheme.params.n + 1) if j != i]
    return (mbcr_exact_primary_points(scheme, i)
            + [mbcr_exact_z_point(scheme, src, i) for src in others])


# ---------------------------------------------------------------------------
# closed-form download rows: the reference for `Scheme._round_rows`
# ---------------------------------------------------------------------------

def _mbcr_exact_download_rows(scheme, failed, helpers, i):
    """Each helper's z value for i and the one i stores for it, then each
    fellow newcomer's z value for i."""
    rows = []
    for h in helpers:
        rows += [mbcr_exact_z_point(scheme, i, h), mbcr_exact_z_point(scheme, h, i)]
    return rows + [mbcr_exact_z_point(scheme, m, i) for m in sorted(failed - {i})]


def _mscr_dk_download_rows(scheme, failed, helpers, i):
    """Share s of each helper, s i's sorted position, then i's own share of
    each other vector, from the newcomer at that vector's position."""
    order = sorted(failed)
    s = order.index(i)
    rows = [scheme._share_point(h, s) for h in helpers]
    return rows + [scheme._share_point(i, s2) for s2, peer in enumerate(order) if peer != i]


def _mbcr_bivariate_download_rows(scheme, failed, helpers, i):
    """f_h(y_i) and g_h(x_i) of each helper h, then g_j(x_i) of each fellow
    newcomer j: monomial rows at those points."""
    points = []
    for h in helpers:
        points += [(h, i), (i, h)]
    points += [(i, j) for j in sorted(failed - {i})]
    return [scheme._monomial_row(*pt) for pt in points]


def _mscr_ia_download_rows(scheme, failed, helpers, i):
    """Each helper's transfer row over its stored rows, then the peer's lam
    over its own phase-1 downloads."""
    p = scheme.field.p

    def combine(coeffs, rows):
        return [sum(c * row[idx] for c, row in zip(coeffs, rows)) % p
                for idx in range(scheme.file_size)]

    (peer,) = failed - {i}
    lam, _ = scheme._repair_strategy(tuple(sorted(failed)))[i]
    own, theirs = [], []
    for m in sorted(helpers):  # the order of the strategy's rows
        stored = node_rows(scheme, m)
        own.append(combine(scheme._transfer(m, i), stored))
        theirs.append(combine(scheme._transfer(m, peer), stored))
    own = [own[sorted(helpers).index(m)] for m in helpers]  # transfer order
    return own + [combine(lam, theirs)]


def _insecure_demo_download_rows(scheme, failed, helpers, i):
    """Each helper's one stored row."""
    return [row for h in helpers for row in node_rows(scheme, h)]


DOWNLOAD_ROW_FORMS = {
    "mbcr-exact": _mbcr_exact_download_rows,
    "mscr-dk": _mscr_dk_download_rows,
    "mbcr-bivariate": _mbcr_bivariate_download_rows,
    "mscr-ia": _mscr_ia_download_rows,
    "insecure-demo": _insecure_demo_download_rows,
}


def download_rows(scheme, failed, helpers, newcomer):
    """The rows, as tuples, of what `newcomer` downloads in the round
    (failed, helpers), in transfer order (beta per helper, then beta' per
    fellow newcomer ascending), in the scheme's closed form."""
    rows = DOWNLOAD_ROW_FORMS[scheme.name](scheme, frozenset(failed), tuple(helpers), newcomer)
    return [tuple(row) for row in rows]


def segment(content, name):
    """The symbols of `content` in its layout segment `name`."""
    start = 0
    for seg, count in content.layout:
        if seg == name:
            return content.symbols[start:start + count]
        start += count
    raise KeyError(name)


# ---------------------------------------------------------------------------
# value-level encodes and reconstructs: the reference for the cached encode
# and reconstruct plans, one `dot`, Horner step or interpolation at a time
# ---------------------------------------------------------------------------

def mbcr_exact_primaries_from_x(scheme, x):
    """Every node's d primary symbols: its x block, then its y-code column
    over each part-b group, one `dot` each."""
    n, k, d = scheme.params.n, scheme.params.k, scheme.params.d
    dot = scheme.field.dot
    groups = [x[n * k + j * k:n * k + (j + 1) * k] for j in range(d - k)]
    return {i: list(x[(i - 1) * k:i * k]) + [dot(scheme.y_cols[i - 1], g) for g in groups]
            for i in range(1, n + 1)}


def mbcr_exact_z_value(scheme, primary, source, stored_at):
    """The z value `source` stores at `stored_at`: its Phi column over
    source's primary symbols."""
    return scheme.field.dot(scheme.phi_cols[scheme._phi_col(source, stored_at)], primary)


def mbcr_exact_encode(scheme, u, r):
    scheme._check_inputs(u, r)
    primaries = mbcr_exact_primaries_from_x(scheme, scheme._precode(u, r))
    return [NodeContent(i, tuple(primaries[i] + [mbcr_exact_z_value(scheme, primaries[src], src, i)
                                                 for src in scheme._others(i)]),
                        scheme.layout)
            for i in range(1, scheme.params.n + 1)]


def _secret_from_all_evaluations(scheme, x):
    """u from the M evaluations by the whole inverse Moore map, then a slice."""
    return tuple(basis_moore_inverse_apply(scheme.field, x)[scheme.n_random:])


def mbcr_exact_reconstruct(scheme, contents):
    """x from the k lowest given nodes: their x blocks; the part-b groups
    by the inverse y-code; every other node's x block by the inverse Phi
    block over its z values less their y part; then u."""
    n, k, d = scheme.params.n, scheme.params.k, scheme.params.d
    f, p = scheme.field, scheme.base.p
    by_id = {c.node_id: c for c in contents}
    if len(by_id) < k:
        raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
    ids = sorted(by_id)[:k]
    x = [f.zero] * scheme.file_size
    for i in ids:
        x[(i - 1) * k:i * k] = segment(by_id[i], "x")
    y_inv = vandermonde_inverse_rows(p, tuple(i - 1 for i in ids))
    for j in range(d - k):
        vals = [segment(by_id[i], "y")[j] for i in ids]
        x[n * k + j * k:n * k + (j + 1) * k] = [f.dot(row, vals) for row in y_inv]
    primaries = mbcr_exact_primaries_from_x(scheme, x)  # y parts right everywhere now
    for i in range(1, n + 1):
        if i in ids:
            continue
        cols = tuple(scheme._phi_col(i, c) for c in ids)
        rhs = [f.sub(segment(by_id[c], "z")[scheme._phi_col(c, i)],
                     f.dot(scheme.phi_cols[col][k:], primaries[i][k:]))
               for c, col in zip(ids, cols)]
        x[(i - 1) * k:i * k] = [f.dot(row, rhs) for row in _phi_block_rows(p, d, cols, k)]
    return _secret_from_all_evaluations(scheme, x)


def mscr_dk_share_value(scheme, m_vec, node):
    """m^T g_node, one `dot`."""
    return scheme.field.dot(scheme.g[node - 1], m_vec)


def mscr_dk_solve_vectors(scheme, nodes, values):
    """m from the shares m^T g_i at the given nodes, one vector per entry
    of `values` (its shares in node order), by the inverse Vandermonde."""
    dot = scheme.field.dot
    inv = vandermonde_inverse_rows(scheme.base.p, tuple(i - 1 for i in nodes))
    return [[dot(row, vals) for row in inv] for vals in values]


def mscr_dk_encode(scheme, u, r):
    scheme._check_inputs(u, r)
    x = scheme._precode(u, r)
    k, t = scheme.params.k, scheme.params.t
    m_vecs = [x[j * k:(j + 1) * k] for j in range(t)]
    return [NodeContent(i, tuple(mscr_dk_share_value(scheme, m_vecs[j], i) for j in range(t)),
                        scheme.layout)
            for i in range(1, scheme.params.n + 1)]


def mscr_dk_reconstruct(scheme, contents):
    k, t = scheme.params.k, scheme.params.t
    by_id = {c.node_id: c for c in contents}
    if len(by_id) < k:
        raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
    ids = sorted(by_id)[:k]
    m_vecs = mscr_dk_solve_vectors(scheme, ids, [[by_id[i].symbols[j] for i in ids]
                                                 for j in range(t)])
    return _secret_from_all_evaluations(scheme, [sym for m in m_vecs for sym in m])


def mbcr_bivariate_coeff_rows(scheme, u, r):
    """Row i holds the Y-coefficients (low first) of X^i in F."""
    k, d, t = scheme.params.k, scheme.params.d, scheme.params.t
    rows = [[0] * (d + t if i < k else k) for i in range(d)]
    for (i, j), c in zip(scheme.r_support + scheme.u_support, tuple(r) + tuple(u)):
        rows[i][j] = c
    return rows


def mbcr_bivariate_eval_f(scheme, rows, xi, yi):
    """F(x_xi, y_yi) by Horner's rule: each row in Y, then the rows in X."""
    q = scheme.field.p
    x = scheme.x_points[xi - 1]
    y = scheme.y_points[yi - 1]
    acc = 0
    for row in reversed(rows):
        inner = 0
        for c in reversed(row):
            inner = (inner * y + c) % q
        acc = (acc * x + inner) % q
    return acc


def mbcr_bivariate_encode(scheme, u, r):
    scheme._check_inputs(u, r)
    rows = mbcr_bivariate_coeff_rows(scheme, u, r)
    return [NodeContent(i, tuple(mbcr_bivariate_eval_f(scheme, rows, xi, yi)
                                 for xi, yi in scheme._stored_points(i)), scheme.layout)
            for i in range(1, scheme.params.n + 1)]


def mbcr_bivariate_col_values(content):
    """The values of a node's column polynomial at its column points:
    F(x_i, y_i), which opens its row segment, then its col segment."""
    return [segment(content, "row")[0]] + list(segment(content, "col"))


def _interpolate(field, xs, ys):
    """Coefficients (low first) of the poly of degree < len(xs) through (xs, ys)."""
    return [field.dot(row, ys) for row in vandermonde_inverse_rows(field.p, tuple(xs))]


def mbcr_bivariate_reconstruct(scheme, contents):
    """u by the interpolation chain: every contacted node's row and column
    polynomials, phi_j for j >= k over the nodes' x, then phi_j for j < k
    per X-degree from the column polynomials' residues."""
    k, d, t = scheme.params.k, scheme.params.d, scheme.params.t
    f = scheme.field
    by_id = {c.node_id: c for c in contents}
    if len(by_id) < k:
        raise ParameterError(f"need k={k} distinct nodes, got {len(by_id)}")
    ids = sorted(by_id)[:k]
    rows = {i: _interpolate(f, scheme._row_points(i), segment(by_id[i], "row")) for i in ids}
    cols = {i: _interpolate(f, scheme._col_points(i), mbcr_bivariate_col_values(by_id[i]))
            for i in ids}
    xs = [scheme.x_points[i - 1] for i in ids]
    phi = {j: _interpolate(f, xs, [rows[i][j] for i in ids]) for j in range(k, d + t)}
    w_inv = vandermonde_inverse_rows(f.p, tuple(scheme.y_points[i - 1] for i in ids))
    residues = []
    for i in ids:
        g = list(cols[i])
        y = scheme.y_points[i - 1]
        for j in range(k, d + t):
            yj = pow(y, j, f.p)
            for a in range(len(phi[j])):
                g[a] = f.sub(g[a], f.mul(yj, phi[j][a]))
        residues.append(g)
    for a in range(d):
        sol = [f.dot(row, [res[a] for res in residues]) for row in w_inv]
        for j in range(k):
            phi.setdefault(j, [f.zero] * d)[a] = sol[j]
    return tuple(phi[j][i] for i, j in scheme.u_support)


def mscr_ia_file_vectors(scheme, u, r):
    """(a, b): each file symbol the sum of its `_packing` coordinates of r || u."""
    p = scheme.field.p
    c = (*r, *u)
    x = [sum(c[i] for i in slots) % p for slots in scheme._packing]
    return x[:scheme.alpha], x[scheme.alpha:]


def mscr_ia_encode(scheme, u, r):
    """Nodes 1 and 2 store a and b, redundancy node i + 2 stores a + B_i b."""
    scheme._check_inputs(u, r)
    f = scheme.field
    a, b = mscr_ia_file_vectors(scheme, u, r)
    nodes = [NodeContent(1, tuple(a), scheme.layout), NodeContent(2, tuple(b), scheme.layout)]
    for i in range(1, scheme.alpha + 1):
        syms = tuple(f.add(a[j], f.mul(scheme.multipliers[i - 1][j], b[j]))
                     for j in range(scheme.alpha))
        nodes.append(NodeContent(i + 2, syms, scheme.layout))
    return nodes


def mscr_ia_solve_file(scheme, c1, c2):
    """(a, b) from two nodes' contents, by Cramer's rule per coordinate."""
    p = scheme.field.p
    pa, pb = scheme._pa, scheme._pb
    u, v = c1.node_id, c2.node_id
    a, b = [], []
    for j, duv in enumerate(scheme._det(u, v)):
        inv = pow(duv, -1, p)
        su, sv = c1.symbols[j], c2.symbols[j]
        a.append((su * pb[v][j] - pb[u][j] * sv) * inv % p)
        b.append((pa[u][j] * sv - su * pa[v][j]) * inv % p)
    return a, b


def mscr_ia_reconstruct(scheme, contents):
    f = scheme.field
    by_id = {c.node_id: c for c in contents}
    if len(by_id) < 2:
        raise ParameterError(f"need k=2 distinct nodes, got {len(by_id)}")
    ids = sorted(by_id)[:2]
    a, b = mscr_ia_solve_file(scheme, by_id[ids[0]], by_id[ids[1]])
    if scheme.n_random == 0:
        return tuple(a + b)
    return tuple(f.sub(b[j], a[j]) for j in range(scheme.secure_size))  # u_j = b_j - a_j


def insecure_demo_encode(scheme, u, r):
    scheme._check_inputs(u, r)
    f = scheme.field
    return [NodeContent(i, (f.add(f.mul(cu, u[0]), f.mul(cr, r[0])),), scheme.layout)
            for i, (cr, cu) in scheme._rows.items()]


def insecure_demo_solve(scheme, ids, values):
    """(r, u) from the symbols `values` of the nodes `ids`, by `Matrix.solve`."""
    return Matrix(scheme.field, [list(scheme._rows[i]) for i in ids]).solve(list(values))


def insecure_demo_reconstruct(scheme, contents):
    by_id = {c.node_id: c for c in contents}
    if len(by_id) < 2:
        raise ParameterError(f"need k=2 distinct nodes, got {len(by_id)}")
    ids = sorted(by_id)[:2]
    return (insecure_demo_solve(scheme, ids, [by_id[i].symbols[0] for i in ids])[1],)


REFERENCE_ENCODES = {
    "mbcr-exact": mbcr_exact_encode,
    "mscr-dk": mscr_dk_encode,
    "mbcr-bivariate": mbcr_bivariate_encode,
    "mscr-ia": mscr_ia_encode,
    "insecure-demo": insecure_demo_encode,
}

REFERENCE_RECONSTRUCTS = {
    "mbcr-exact": mbcr_exact_reconstruct,
    "mscr-dk": mscr_dk_reconstruct,
    "mbcr-bivariate": mbcr_bivariate_reconstruct,
    "mscr-ia": mscr_ia_reconstruct,
    "insecure-demo": insecure_demo_reconstruct,
}


# ---------------------------------------------------------------------------
# value-level repairs: the reference for the cached repair plans
# ---------------------------------------------------------------------------

def _transcript(failed, helpers, live, coop, results):
    return RepairTranscript(failed=failed, helpers=helpers,
                            live_transfers={key: tuple(v) for key, v in live.items()},
                            coop_transfers={key: tuple(v) for key, v in coop.items()},
                            results=tuple(results))


def mbcr_exact_repair(scheme, failed, survivors, helpers=None):
    """mbcr-exact repair computed on the values: each helper's z value for
    a newcomer gives its primary through the inverse Phi block, then every
    other node sends the z value the newcomer stores for it, one `dot` of a
    Phi column with the sender's primary."""
    f, d = scheme.field, scheme.params.d
    failed = scheme._validate_failed(failed, survivors)
    helpers = scheme._pick_helpers(failed, survivors, helpers)
    if set(helpers) != set(survivors):
        raise ParameterError(f"{scheme.name} repair contacts all d = n-t survivors")
    live, coop, new_primary = {}, {}, {}
    for i in sorted(failed):
        rhs = []
        for h in helpers:
            z_hi = segment(survivors[h], "z")[scheme._phi_col(h, i)]
            live[(h, i)] = [z_hi]
            rhs.append(z_hi)
        cols = tuple(scheme._phi_col(i, h) for h in helpers)
        new_primary[i] = [f.dot(row, rhs) for row in _phi_block_rows(scheme.base.p, d, cols, d)]
    primaries = {h: survivors[h].symbols[:d] for h in helpers}
    results = []
    for i in sorted(failed):
        z_segment = {}
        for h in helpers:
            z_segment[h] = mbcr_exact_z_value(scheme, primaries[h], h, i)
            live[(h, i)].append(z_segment[h])
        for m in sorted(failed - {i}):
            z_segment[m] = mbcr_exact_z_value(scheme, new_primary[m], m, i)
            coop[(m, i)] = [z_segment[m]]
        syms = list(new_primary[i]) + [z_segment[src] for src in scheme._others(i)]
        results.append(NodeContent(i, tuple(syms), scheme.layout))
    return _transcript(failed, helpers, live, coop, results)


def mscr_dk_repair(scheme, failed, survivors, helpers=None):
    """mscr-dk repair computed on the values: the newcomer at sorted
    position s downloads share s of each helper, and each share m_s^T g_i is
    one `dot` of node i's Lagrange row over the helpers' points."""
    dot = scheme.field.dot
    failed = scheme._validate_failed(failed, survivors)
    helpers = scheme._pick_helpers(failed, survivors, helpers)
    order = sorted(failed)
    live, coop, downloads = {}, {}, []
    for s, i in enumerate(order):
        vals = [survivors[h].symbols[s] for h in helpers]
        for h, v in zip(helpers, vals):
            live[(h, i)] = (v,)
        downloads.append(vals)
    points = tuple(h - 1 for h in helpers)
    results = []
    for i in order:
        row = lagrange_row(scheme.base.p, points, i - 1)
        shares = tuple(dot(row, vals) for vals in downloads)
        for s2, peer in enumerate(order):
            if peer != i:
                coop[(peer, i)] = (shares[s2],)
        results.append(NodeContent(i, shares, scheme.layout))
    return _transcript(failed, helpers, live, coop, results)


def lagrange_at(q, xs, ys, x):
    """The value at x of the polynomial of degree < len(xs) through the
    points (xs, ys) over GF(q): the stored value when x is one of xs, else
    one dot of the cached Lagrange row.  xs must be a tuple."""
    if x in xs:
        return ys[xs.index(x)]
    return sum(map(mul, lagrange_row(q, xs, x), ys)) % q


def mbcr_bivariate_repair(scheme, failed, survivors, helpers=None):
    """mbcr-bivariate repair computed on the values: every transfer and
    rebuilt symbol is `lagrange_at` of the values it is known by."""
    q = scheme.field.p
    x, y = scheme.x_points, scheme.y_points
    failed = scheme._validate_failed(failed, survivors)
    helpers = scheme._pick_helpers(failed, survivors, helpers)
    newcomers = sorted(failed)
    live, coop = {}, {}
    stored = [(scheme._row_points(h), segment(survivors[h], "row"),
               scheme._col_points(h), mbcr_bivariate_col_values(survivors[h])) for h in helpers]
    for i in newcomers:
        for h, (row_pts, row_vals, col_pts, col_vals) in zip(helpers, stored):
            live[(h, i)] = (lagrange_at(q, row_pts, row_vals, y[i - 1]),   # f_h(y_i)
                            lagrange_at(q, col_pts, col_vals, x[i - 1]))   # g_h(x_i)
    helper_xs = tuple(x[h - 1] for h in helpers)
    col_evidence = {j: [live[(h, j)][0] for h in helpers] for j in newcomers}
    for i in newcomers:
        for j in newcomers:
            if j != i:
                coop[(j, i)] = (lagrange_at(q, helper_xs, col_evidence[j], x[i - 1]),)
    results = []
    for i in newcomers:
        ys = [y[h - 1] for h in helpers]
        vals = [live[(h, i)][1] for h in helpers]
        for j in newcomers:
            if j != i:
                ys.append(y[j - 1])
                vals.append(coop[(j, i)][0])
        ys.append(y[i - 1])
        vals.append(lagrange_at(q, helper_xs, col_evidence[i], x[i - 1]))
        ys = tuple(ys)
        row_seg = [lagrange_at(q, ys, vals, pt) for pt in scheme._row_points(i)]
        col_seg = [lagrange_at(q, helper_xs, col_evidence[i], pt)
                   for pt in scheme._col_points(i)[1:]]
        results.append(NodeContent(i, tuple(row_seg + col_seg), scheme.layout))
    return _transcript(failed, helpers, live, coop, results)


def mscr_ia_systems(scheme, pair):
    """newcomer -> (lam, rows of its (alpha+1)-system) for one failed pair:
    the search of `_repair_strategy`, each candidate lam checked by the
    rank of the system rather than by inverting it."""
    f = scheme.field
    p, alpha = f.p, scheme.alpha
    helpers = [m for m in range(1, scheme.params.n + 1) if m not in pair]
    targets, rows = {}, {}
    for newcomer, peer in (pair, pair[::-1]):
        inv_dnp = [pow(x, -1, p) for x in scheme._det(newcomer, peer)]
        e = scheme.exponents[newcomer - 1]
        targets[newcomer] = [pow(scheme.w, e * j, p) * x % p for j, x in enumerate(inv_dnp)]
        rows[newcomer] = [[c * dmp * x % p for c, dmp, x in
                           zip(scheme._transfer(m, newcomer), scheme._det(m, peer), inv_dnp)]
                          for m in helpers]
    systems = {}
    for newcomer, peer in (pair, pair[::-1]):
        null_rows = [[row[j] for row in rows[peer]] + [-targets[newcomer][j] % p]
                     for j in range(alpha)]
        for vec in Matrix(f, null_rows, ncols=alpha + 1).nullspace():
            lam, mu = vec[:alpha], vec[alpha]
            sys_rows = [row + [1] for row in rows[newcomer]]
            sys_rows.append([sum(lam) * c % p for c in targets[peer]] + [mu])
            if Matrix(f, sys_rows, ncols=alpha + 1).rank() == alpha + 1:
                systems[newcomer] = lam, sys_rows
                break
    return systems


def mscr_ia_repair(scheme, failed, survivors, helpers=None):
    """mscr-ia repair computed on the values: each helper's one `dot` per
    newcomer, the peer's lam over its own downloads, then `Matrix.solve` of
    the newcomer's (alpha+1)-system."""
    f = scheme.field
    failed = scheme._validate_failed(failed, survivors)
    helpers = scheme._pick_helpers(failed, survivors, helpers)
    if set(helpers) != set(survivors):
        raise ParameterError(f"{scheme.name} repair contacts all d = n-t survivors")
    pair = tuple(sorted(failed))
    systems = mscr_ia_systems(scheme, pair)
    live, coop, results = {}, {}, []
    for m in helpers:
        for newcomer in pair:
            live[(m, newcomer)] = (f.dot(scheme._transfer(m, newcomer), survivors[m].symbols),)
    for newcomer, peer in (pair, pair[::-1]):
        lam, sys_rows = systems[newcomer]
        peer_val = sum(lm * live[(m, peer)][0] for lm, m in zip(lam, helpers)) % f.p
        coop[(peer, newcomer)] = (peer_val,)
        rhs = [live[(m, newcomer)][0] for m in helpers] + [peer_val]
        sol = Matrix(f, sys_rows, ncols=scheme.alpha + 1).solve(rhs)
        results.append(NodeContent(newcomer, tuple(sol[:scheme.alpha]), scheme.layout))
    return _transcript(failed, helpers, live, coop, results)


def insecure_demo_repair(scheme, failed, survivors, helpers=None):
    """insecure-demo repair computed on the values: (r, u) by `Matrix.solve`
    from both survivors' symbols, then the newcomer's own row."""
    f = scheme.field
    failed = scheme._validate_failed(failed, survivors)
    helpers = scheme._pick_helpers(failed, survivors, helpers)
    (i,) = tuple(failed)
    live = {(h, i): (survivors[h].symbols[0],) for h in helpers}
    r0, u0 = insecure_demo_solve(scheme, helpers, [survivors[h].symbols[0] for h in helpers])
    cr, cu = scheme._rows[i]
    val = f.add(f.mul(cu, u0), f.mul(cr, r0))
    return _transcript(failed, helpers, live, {}, [NodeContent(i, (val,), scheme.layout)])


REFERENCE_REPAIRS = {
    "mbcr-exact": mbcr_exact_repair,
    "mscr-dk": mscr_dk_repair,
    "mbcr-bivariate": mbcr_bivariate_repair,
    "mscr-ia": mscr_ia_repair,
    "insecure-demo": insecure_demo_repair,
}


def replay_per_record(trace):
    """`coopdss.sim.replay_check` without its equality-first test: every
    record of every round is compared on its own.  Returns (ok, diffs)."""
    from coopdss.sim import _scheme_of

    scheme = _scheme_of(trace)
    states = {c.node_id: c for c in trace.initial}
    diffs = []
    for round_idx, tr in enumerate(trace.transcripts):
        survivors = {i: c for i, c in states.items() if i not in tr.failed}
        fresh = scheme.cooperative_repair(tr.failed, survivors, tr.helpers)
        for key, vals in fresh.live_transfers.items():
            if tr.live_transfers.get(key) != vals:
                diffs.append(f"round {round_idx}: live transfer {key} mismatch")
        for key, vals in fresh.coop_transfers.items():
            if tr.coop_transfers.get(key) != vals:
                diffs.append(f"round {round_idx}: coop transfer {key} mismatch")
        if set(tr.live_transfers) != set(fresh.live_transfers) or \
                set(tr.coop_transfers) != set(fresh.coop_transfers):
            diffs.append(f"round {round_idx}: transfer edge sets differ")
        for res in fresh.results:
            recorded = next((c for c in tr.results if c.node_id == res.node_id), None)
            if recorded != res:
                diffs.append(f"round {round_idx}: result for node {res.node_id} mismatch")
            if res != states[res.node_id]:
                diffs.append(f"round {round_idx}: node {res.node_id} not exactly repaired")
        for res in tr.results:
            states[res.node_id] = res
        if diffs:
            return False, diffs
    for c in trace.final:
        if states[c.node_id] != c:
            diffs.append(f"final state of node {c.node_id} mismatch")
    initial_by_id = {c.node_id: c for c in trace.initial}
    for c in trace.final:
        if initial_by_id[c.node_id] != c:
            diffs.append(f"node {c.node_id} drifted from its initial content")
    return not diffs, diffs


def brute_force_int64(scheme, e1, e2, transcripts=()):
    """The brute-force verdict with one int64 code per assignment, on the
    map that `coopdss.secrecy._probed_map` probes; no guard, no id checks."""
    import numpy as np

    field = scheme.field
    ms, nr = scheme.secure_size, scheme.n_random
    order = field.order
    p = field.char
    a = _probed_map(scheme, e1, e2, transcripts)
    n_digits = a.shape[1]

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
