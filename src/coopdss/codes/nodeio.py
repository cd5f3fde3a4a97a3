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
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..field import ExtField, PrimeField
from . import SCHEME_TAGS, make_scheme
from .base import NodeContent, ParameterError, Scheme, SchemeParams

_TAG_TO_SCHEME = {v: k for k, v in SCHEME_TAGS.items()}


def _field_descriptor(field) -> bytes:
    if isinstance(field, PrimeField):
        return struct.pack("<IHH", field.p, 1, 0)
    coords = b"".join(c.to_bytes(field.coord_width, "little") for c in field.modulus)
    return struct.pack("<IHH", field.p, field.m, len(field.modulus)) + coords


def write_nodes(scheme: Scheme, contents: Sequence[NodeContent]) -> bytes:
    p = scheme.params
    head = struct.pack("<B6H", SCHEME_TAGS[scheme.name], p.n, p.k, p.d, p.t, p.l1, p.l2)
    head += _field_descriptor(scheme.field)
    head += struct.pack("<H", len(contents))
    body = b""
    for c in contents:
        if len(c.symbols) != scheme.alpha:
            raise ParameterError("content does not match the scheme's alpha")
        body += struct.pack("<H", c.node_id)
        for sym in c.symbols:
            body += scheme.field.symbol_to_bytes(sym)
    return head + body


def _unpack(fmt: str, data: bytes, off: int, what: str) -> tuple:
    end = off + struct.calcsize(fmt)
    if end > len(data):
        raise ParameterError(
            f"node file truncated: {len(data)} bytes, the {what} needs {end}")
    return struct.unpack_from(fmt, data, off)


def read_nodes(data: bytes) -> tuple[SchemeParams, list[NodeContent]]:
    """Parse a node file; malformed, short or truncated input, a record node
    id outside [1, n] and a node id repeated within the file raise
    ParameterError."""
    tag, n, k, d, t, l1, l2 = _unpack("<B6H", data, 0, "header")
    off = 13
    p, m, modlen = _unpack("<IHH", data, off, "field descriptor")
    off += 8
    if tag not in _TAG_TO_SCHEME:
        raise ParameterError(f"unknown scheme tag {tag}")
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=_TAG_TO_SCHEME[tag])
    scheme = make_scheme(params)
    field = scheme.field
    if (field.p, field.degree) != (p, m):
        raise ParameterError(
            f"file field GF({p}^{m}) does not match the scheme's {field!r}")
    if modlen:
        w = field.coord_width
        (raw,) = _unpack(f"{modlen * w}s", data, off, "field modulus")
        coeffs = tuple(int.from_bytes(raw[i * w:(i + 1) * w], "little")
                       for i in range(modlen))
        off += modlen * w
        if isinstance(field, ExtField) and coeffs != field.modulus:
            raise ParameterError("modulus mismatch; file from an incompatible build")
    (count,) = _unpack("<H", data, off, "record count")
    off += 2
    sym_bytes = field.symbol_bytes
    end = off + count * (2 + scheme.alpha * sym_bytes)
    if end > len(data):
        raise ParameterError(
            f"node file truncated: {len(data)} bytes, {count} records need {end}")
    if end < len(data):
        raise ParameterError("trailing bytes in node file")
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
        syms = []
        for _ in range(scheme.alpha):
            syms.append(field.symbol_from_bytes(data[off:off + sym_bytes]))
            off += sym_bytes
        contents.append(NodeContent(node_id, tuple(syms), scheme.layout))
    return params, contents
