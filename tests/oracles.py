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
has an extension-field oracle.  `a_u` and `a_r` slice a linear view's
[A_r | A_u] into its secret and random columns, for the checks that
replay e = A_u u + A_r r.

The mbcr-exact observation points are written in closed form by the scheme;
`mbcr_exact_stored_rows` and `mbcr_exact_z_point` build them by combining
the primary points coordinate by coordinate.

`normalize_per_digit` is the per-digit pass that `ExtField._normalize`
replaces with word-parallel folds (unpack every word, take it mod p, pack
again), and `random_symbols` draws from the `splitmix64` generator one
`draw_mod` call per coordinate, the reference for the inline loop of
`coopdss.precode.random_symbols`.
"""

from coopdss.codes.base import ObservationMatrix, PointObservation
from coopdss.field import Matrix, PrimeField, ext_field, moore_matrix
from coopdss.precode import splitmix64


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
