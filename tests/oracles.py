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
labels, which the program walks apart from its rows on first use.  `a_u`
and `a_r` slice a linear view's [A_r | A_u] into its secret and random
columns, for the checks that replay e = A_u u + A_r r.

The mbcr-exact observation points are written in closed form by the scheme;
`mbcr_exact_stored_rows` and `mbcr_exact_z_point` build them by combining
the primary points coordinate by coordinate.

`normalize_per_digit` is the per-digit pass that `ExtField._normalize`
replaces with word-parallel folds (unpack every word, take it mod p, pack
again), and `random_symbols` draws from the `splitmix64` generator one
`draw_mod` call per coordinate, the reference for the inline loop of
`coopdss.precode.random_symbols`.

`mbcr_exact_repair`, `mscr_dk_repair` and `mbcr_bivariate_repair` repair on
the values, one `dot` or `lagrange_at` per symbol as the data arrives: the
reference for the cached repair plans that the program runs
(`coopdss.codes.base.RepairPlan`).  `REFERENCE_ENCODES` and
`REFERENCE_RECONSTRUCTS` are the same for encoding and decoding, the loops
the schemes ran before their encode and reconstruct plans: mbcr-exact's
primaries and z values, mscr-dk's shares and Vandermonde solve (each decode
applying the whole inverse Moore map, then slicing u), and mbcr-bivariate's
Horner evaluation and interpolation chain.  `segment` reads a node's layout
segment by name.

`brute_force_int64` enumerates every joint (u, r) assignment with one
int64 code each: every probed coordinate row, zero and repeated ones
included, is folded in, and the codes are relabelled with `np.unique`
before they could overflow; the support of e is counted for each u.  It is
the reference for `coopdss.secrecy.brute_force_leakage`, which counts the
cosets of the same probed map from the u part and the r part alone, in
narrow codes.
"""

from operator import mul

from coopdss.codes.base import (NodeContent, ObservationMatrix, ParameterError,
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


def observation_rows_and_labels(scheme, e1, e2, transcripts=()):
    """The eavesdropper's rows and their labels in one eager walk of the
    shared row order, as views were built before their labels were walked
    on first use: the reference for `ObservationMatrix.labels` and for the
    rows a view holds."""
    e1, e2 = scheme._validate_eaves(e1, e2, transcripts)
    rows, labels = [], []
    for node in e1 + e2:
        rows += scheme._node_rows(node)
        for idx in range(scheme.alpha):
            labels.append(("stored", node, idx))
    for rnd, tr in enumerate(transcripts):
        for i in sorted(tr.failed & set(e2)):
            rows += scheme._newcomer_rows(tr, i)
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


REFERENCE_ENCODES = {
    "mbcr-exact": mbcr_exact_encode,
    "mscr-dk": mscr_dk_encode,
    "mbcr-bivariate": mbcr_bivariate_encode,
}

REFERENCE_RECONSTRUCTS = {
    "mbcr-exact": mbcr_exact_reconstruct,
    "mscr-dk": mscr_dk_reconstruct,
    "mbcr-bivariate": mbcr_bivariate_reconstruct,
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


REFERENCE_REPAIRS = {
    "mbcr-exact": mbcr_exact_repair,
    "mscr-dk": mscr_dk_repair,
    "mbcr-bivariate": mbcr_bivariate_repair,
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
