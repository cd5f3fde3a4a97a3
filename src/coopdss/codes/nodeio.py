"""Binary node-content files.

Layout (little-endian throughout):

    scheme tag        1 byte
    n,k,d,t,l1,l2     2 bytes each
    field descriptor  p: 4 bytes, m: 2 bytes, modulus coefficient count:
                      2 bytes, then that many base-field coordinates
                      (coord_width bytes each; count is 0 for prime fields)
    record count      2 bytes
    records           node_id: 2 bytes, then alpha symbols, each m
                      little-endian base-field coordinates of coord_width
                      bytes (coordinate 0 first)

Symbols appear in node-id-major order (one record per node), segment order
within a record.  The CLI writes one record per file.

Reading builds no scheme.  The node format (p, m, alpha, layout) is a closed
form of the header's parameters (`Scheme.node_format`, which runs the
constructor's parameter checks).  The cap on m is ExtField's 64-bit word
bound (`field.fits_word_slots`): m * max(m, 2) * (p-1)^2 * p < 2^64, about
m^2 p^3 < 2^64, e.g. m <= 45264 at p = 2081 and m <= 103 at p = 119981; a
format past it is refused as "too large".  Below p = 1601 the 2-byte m of
the descriptor is the tighter limit.  The header's whole field descriptor is
then compared with the one the format gives, before any field or scheme is
built, so a forged header costs a few closed forms and no search.

The checks up to the descriptor compare depend only on the first 21 bytes
(tag, n..l2, p, m and the modulus count), so `_header` runs them once per
distinct prefix per process, in a bounded cache (32 entries, under 1 KB
each).  Errors are never cached: a refused header runs every check on
every read.  The truncation checks on the first 21 bytes come before the
lookup, and the descriptor compare, record count and records run on every
read.  Each record decodes in one pass (`symbols_from_bytes`), whose range
check tests every coordinate word at once.

`write_nodes` writes only files that `read_nodes` reads back: a node id
outside [1, n] or repeated raises the reader's ParameterError, and a symbol
that does not serialise to its own coordinates (a digit at or past p, a
digit past the m-th word, a negative value) raises ValueError.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Sequence

from ..field import coordinate_bytes, ext_field, find_irreducible, fits_word_slots
from . import SCHEME_CLASSES, SCHEME_TAGS
from .base import NodeContent, ParameterError, Scheme, SchemeParams, _record

_TAG_TO_SCHEME = {v: k for k, v in SCHEME_TAGS.items()}
# scheme tag, n, k, d, t, l1, l2, then the descriptor's p, m and modulus count
_PREFIX = struct.Struct("<B6HIHH")
_U16 = struct.Struct("<H")


@lru_cache(maxsize=64)
def _field_descriptor(p: int, m: int) -> bytes:
    """The descriptor of GF(p^m).  The modulus is a closed form of (p, m), so
    the bytes are too; cached because every file of a field repeats them."""
    if m == 1:
        return struct.pack("<IHH", p, 1, 0)
    w = coordinate_bytes(p)
    modulus = find_irreducible(p, m)
    coords = b"".join(c.to_bytes(w, "little") for c in modulus)
    return struct.pack("<IHH", p, m, len(modulus)) + coords


def write_nodes(scheme: Scheme, contents: Sequence[NodeContent]) -> bytes:
    """The node file of `contents`.  It writes only what `read_nodes` reads
    back: parameters past the header's 2-byte fields, a record of the wrong
    length, a node id outside [1, n] or repeated, and a symbol outside the
    field raise ValueError (ParameterError for the parameters and the ids,
    with the reader's messages for the ids)."""
    p = scheme.params
    field = scheme.field
    try:
        parts = [struct.pack("<B6H", SCHEME_TAGS[scheme.name], p.n, p.k, p.d, p.t, p.l1, p.l2),
                 _field_descriptor(field.p, field.degree)]
    except struct.error:
        raise ParameterError(f"n={p.n}, k={p.k}, d={p.d}, t={p.t}, l1={p.l1}, l2={p.l2}: "
                             "a node file holds each in 2 bytes") from None
    encode = field.symbols_to_bytes
    records = []
    seen: set[int] = set()
    for c in contents:
        if len(c.symbols) != scheme.alpha:
            raise ParameterError("content does not match the scheme's alpha")
        _check_node_id(c.node_id, p.n, seen)
        records.append(_U16.pack(c.node_id))
        records.append(encode(c.symbols))
    # unique ids in [1, n] and n < 2^16: the count fits its 2 bytes
    return b"".join([*parts, _U16.pack(len(contents)), *records])


def _check_node_id(node_id: int, n: int, seen: set[int]) -> None:
    if not 1 <= node_id <= n:
        raise ParameterError(f"record node id {node_id} outside [1, {n}]")
    if node_id in seen:
        raise ParameterError(f"node id {node_id} appears twice in one file")
    seen.add(node_id)


def _truncated(data: bytes, end: int, what: str) -> ParameterError:
    return ParameterError(f"node file truncated: {len(data)} bytes, the {what} needs {end}")


@lru_cache(maxsize=32)
def _header(prefix: bytes) -> tuple[SchemeParams, int, int, int, tuple, bytes, int]:
    """The checks of a node file's first 21 bytes (tag, n, k, d, t, l1, l2,
    p, m and the modulus coefficient count), in order: (params, p, m, alpha,
    layout, the expected field descriptor, the end of the file's own
    descriptor).  Cached by those bytes; a refused header raises and is
    never cached, so it costs its checks on every read."""
    tag, n, k, d, t, l1, l2, p, m, modlen = _PREFIX.unpack(prefix)
    if tag not in _TAG_TO_SCHEME:
        raise ParameterError(f"unknown scheme tag {tag}")
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=_TAG_TO_SCHEME[tag])
    fp, fm, alpha, layout = SCHEME_CLASSES[params.scheme].node_format(params)
    if fm > 1 and not fits_word_slots(fp, fm):
        raise ParameterError(f"GF({fp}^{fm}) is too large for 64-bit digit slots")
    if (p, m) != (fp, fm):
        name = f"GF({fp})" if fm == 1 else f"GF({fp}^{fm})"
        raise ParameterError(f"file field GF({p}^{m}) does not match the scheme's {name}")
    # sized by the header's own coefficient count: a file cut inside it is
    # reported as truncated
    return (params, fp, fm, alpha, layout, _field_descriptor(fp, fm),
            _PREFIX.size + modlen * coordinate_bytes(fp))


def read_nodes(data: bytes) -> tuple[SchemeParams, list[NodeContent]]:
    """Parse a node file; malformed, short or truncated input, a record node
    id outside [1, n] and a node id repeated within the file raise
    ParameterError (a bad coordinate raises ValueError)."""
    size = len(data)
    if size < _PREFIX.size:
        if size < 13:
            raise _truncated(data, 13, "header")
        raise _truncated(data, _PREFIX.size, "field descriptor")
    params, fp, fm, alpha, layout, expected, off = _header(bytes(data[:_PREFIX.size]))
    if size < off:
        raise _truncated(data, off, "field modulus")
    if data[13:off] != expected:
        raise ParameterError("modulus mismatch; file from an incompatible build")
    if size < off + 2:
        raise _truncated(data, off + 2, "record count")
    (count,) = _U16.unpack_from(data, off)
    off += 2
    field = ext_field(fp, fm)
    record = alpha * field.symbol_bytes
    end = off + count * (2 + record)
    if end > size:
        raise ParameterError(f"node file truncated: {size} bytes, {count} records need {end}")
    if end < size:
        raise ParameterError("trailing bytes in node file")
    decode, node_id_at, n = field.symbols_from_bytes, _U16.unpack_from, params.n
    contents = []
    seen: set[int] = set()
    for _ in range(count):
        (node_id,) = node_id_at(data, off)
        off += 2
        _check_node_id(node_id, n, seen)
        symbols = tuple(decode(data[off:off + record]))  # alpha symbols, as `layout` sums
        contents.append(_record(NodeContent, node_id=node_id, symbols=symbols, layout=layout))
        off += record
    return params, contents
