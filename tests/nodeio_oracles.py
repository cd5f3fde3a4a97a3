"""Reference node-file codecs for `coopdss.codes.nodeio`.

`read_nodes_uncached` is the reader as it was before its header checks were
cached: every read unpacks the header and runs the parameter checks,
`node_format`, the word-slot cap and the descriptor compare again, and it
range-checks coordinates by unpacking them all and taking their max.  The
cached reader must raise the same exception with the same message, or return
the same result, on every input.

`write_nodes_per_coordinate` writes a node file one coordinate at a time and
checks nothing: the reference bytes of `nodeio.write_nodes` for valid
contents, and a way to build the files that `write_nodes` refuses (a node id
outside [1, n] or repeated, a coordinate in [p, 2^(8 coord_width))).
"""

import struct

from coopdss.codes import SCHEME_CLASSES, SCHEME_TAGS
from coopdss.codes.base import NodeContent, ParameterError, SchemeParams
from coopdss.codes.nodeio import _TAG_TO_SCHEME, _field_descriptor
from coopdss.field import coordinate_bytes, ext_field, fits_word_slots


def _check_coords_by_max(coords, p):
    if coords and max(coords) >= p:
        bad = next(c for c in coords if c >= p)
        raise ValueError(f"coordinate {bad} out of range for GF({p})")


def _symbols_from_bytes(field, bs):
    """`symbols_from_bytes` with the range check by struct.unpack and max."""
    w = field.coord_width
    if field.degree == 1:
        if len(bs) % w:
            raise ValueError("wrong symbol width")
        symbols = [int.from_bytes(bs[i:i + w], "little") for i in range(0, len(bs), w)]
        _check_coords_by_max(symbols, field.p)
        return symbols
    wb = field._db // 8
    if len(bs) % (field.m * w):
        raise ValueError("wrong symbol width")
    ncoords = len(bs) // w
    words = bytearray(ncoords * wb)
    for i in range(w):
        words[i::wb] = bs[i::w]
    _check_coords_by_max(struct.unpack(f"<{ncoords}{'I' if wb == 4 else 'Q'}", words), field.p)
    view = memoryview(words)
    size = field._words.size
    return [int.from_bytes(view[j:j + size], "little") for j in range(0, len(words), size)]


def _unpack(fmt, data, off, what):
    end = off + struct.calcsize(fmt)
    if end > len(data):
        raise ParameterError(
            f"node file truncated: {len(data)} bytes, the {what} needs {end}")
    return struct.unpack_from(fmt, data, off)


def read_nodes_uncached(data):
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
        contents.append(NodeContent(node_id, tuple(_symbols_from_bytes(field, data[off:off + record])),
                                    layout))
        off += record
    return params, contents


def write_nodes_per_coordinate(scheme, contents):
    p, f = scheme.params, scheme.field
    w = f.coord_width
    modulus = f.modulus if f.degree > 1 else ()
    parts = [struct.pack("<B6H", SCHEME_TAGS[scheme.name], p.n, p.k, p.d, p.t, p.l1, p.l2),
             struct.pack("<IHH", f.char, f.degree, len(modulus)),
             b"".join(c.to_bytes(w, "little") for c in modulus),
             struct.pack("<H", len(contents))]
    for c in contents:
        parts.append(struct.pack("<H", c.node_id))
        parts.extend(x.to_bytes(w, "little") for a in c.symbols for x in f.coords(a))
    return b"".join(parts)
