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
built, so a forged header costs a few closed forms and no search.  Each
record decodes in one pass (`symbols_from_bytes`).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Sequence

from ..field import coordinate_bytes, ext_field, find_irreducible, fits_word_slots
from . import SCHEME_CLASSES, SCHEME_TAGS
from .base import NodeContent, ParameterError, Scheme, SchemeParams

_TAG_TO_SCHEME = {v: k for k, v in SCHEME_TAGS.items()}


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
    p = scheme.params
    field = scheme.field
    parts = [struct.pack("<B6H", SCHEME_TAGS[scheme.name], p.n, p.k, p.d, p.t, p.l1, p.l2),
             _field_descriptor(field.p, field.degree),
             struct.pack("<H", len(contents))]
    for c in contents:
        if len(c.symbols) != scheme.alpha:
            raise ParameterError("content does not match the scheme's alpha")
        parts.append(struct.pack("<H", c.node_id))
        parts.append(field.symbols_to_bytes(c.symbols))
    return b"".join(parts)


def _unpack(fmt: str, data: bytes, off: int, what: str) -> tuple:
    end = off + struct.calcsize(fmt)
    if end > len(data):
        raise ParameterError(
            f"node file truncated: {len(data)} bytes, the {what} needs {end}")
    return struct.unpack_from(fmt, data, off)


def read_nodes(data: bytes) -> tuple[SchemeParams, list[NodeContent]]:
    """Parse a node file; malformed, short or truncated input, a record node
    id outside [1, n] and a node id repeated within the file raise
    ParameterError (a bad coordinate raises ValueError)."""
    tag, n, k, d, t, l1, l2 = _unpack("<B6H", data, 0, "header")
    off = 13
    p, m, modlen = _unpack("<IHH", data, off, "field descriptor")
    if tag not in _TAG_TO_SCHEME:
        raise ParameterError(f"unknown scheme tag {tag}")
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=_TAG_TO_SCHEME[tag])
    fp, fm, alpha, layout = SCHEME_CLASSES[params.scheme].node_format(params)
    if fm > 1 and not fits_word_slots(fp, fm):
        raise ParameterError(f"GF({fp}^{fm}) is too large for 64-bit digit slots")
    if (p, m) != (fp, fm):
        name = f"GF({fp})" if fm == 1 else f"GF({fp}^{fm})"
        raise ParameterError(f"file field GF({p}^{m}) does not match the scheme's {name}")
    expected = _field_descriptor(fp, fm)
    # sized by the header's own coefficient count: a file cut inside it is
    # reported as truncated
    (descriptor,) = _unpack(f"{8 + modlen * coordinate_bytes(fp)}s", data, off,
                            "field modulus")
    if descriptor != expected:
        raise ParameterError("modulus mismatch; file from an incompatible build")
    off += len(expected)
    (count,) = _unpack("<H", data, off, "record count")
    off += 2
    field = ext_field(fp, fm)
    record = alpha * field.symbol_bytes
    end = off + count * (2 + record)
    if end > len(data):
        raise ParameterError(
            f"node file truncated: {len(data)} bytes, {count} records need {end}")
    if end < len(data):
        raise ParameterError("trailing bytes in node file")
    decode = field.symbols_from_bytes
    contents = []
    seen: set[int] = set()
    for _ in range(count):
        (node_id,) = struct.unpack_from("<H", data, off)
        off += 2
        if not 1 <= node_id <= n:
            raise ParameterError(f"record node id {node_id} outside [1, {n}]")
        if node_id in seen:
            raise ParameterError(f"node id {node_id} appears twice in one file")
        seen.add(node_id)
        contents.append(NodeContent(node_id, tuple(decode(data[off:off + record])), layout))
        off += record
    return params, contents
