"""Node files read without a scheme build, against the build-the-scheme oracle.

`read_nodes_oracle` builds the scheme from the header with `make_scheme`,
takes the field, alpha and layout from it, and decodes every symbol on its
own, coordinate by coordinate.  The reader's cached header checks are held
to the uncached reader (`nodeio_oracles.read_nodes_uncached`) on malformed
files, and the writer to the per-coordinate writer
(`nodeio_oracles.write_nodes_per_coordinate`).
"""

import struct
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdss import field as F
from coopdss.cli import main
from coopdss.codes import SCHEME_CLASSES, SCHEME_TAGS, make_scheme, nodeio
from coopdss.codes.base import NodeContent, ParameterError, SchemeParams
from nodeio_oracles import read_nodes_uncached, write_nodes_per_coordinate
from scheme_utils import elem_from_int

# one instance per scheme; mbcr-bivariate with n > d + t
INSTANCES = {
    "mbcr-exact": SchemeParams(n=5, k=3, d=3, t=2, l1=1, scheme="mbcr-exact"),
    "mbcr-bivariate": SchemeParams(n=8, k=3, d=4, t=2, l1=1, scheme="mbcr-bivariate"),
    "mscr-ia": SchemeParams(n=5, k=2, d=3, t=2, l1=1, scheme="mscr-ia"),
    "mscr-dk": SchemeParams(n=7, k=3, d=3, t=3, l1=1, scheme="mscr-dk"),
    "insecure-demo": SchemeParams(n=3, k=2, d=2, t=1, l1=1, scheme="insecure-demo"),
}

# headers whose field descriptor (GF(31^44), no modulus) is not the format's
FORGED = {
    "mbcr-exact-8": ("mbcr-exact", 8, 4, 7, 1, 2),  # GF(89^44)
    "mbcr-exact-40": ("mbcr-exact", 40, 20, 39, 1, 0),  # GF(1181^1180)
    "mscr-dk-200": ("mscr-dk", 200, 100, 100, 100, 0),  # GF(241^10000)
    "mscr-dk-2000": ("mscr-dk", 2000, 1000, 1000, 1000, 0),  # too large
    "mbcr-bivariate-8000": ("mbcr-bivariate", 8000, 4000, 7999, 1, 0),  # too large
    "mscr-ia-5": ("mscr-ia", 5, 2, 3, 2, 1),  # GF(11)
}


def _symbol_oracle(field, raw):
    """One symbol from its m coordinates, coord_width little-endian bytes each."""
    w = field.coord_width
    coords = [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
    for c in coords:
        if c >= field.p:
            raise ValueError(f"coordinate {c} out of range for GF({field.p})")
    return field.from_coords(coords)


def read_nodes_oracle(data):
    tag, n, k, d, t, l1, l2 = struct.unpack_from("<B6H", data, 0)
    p, m, modlen = struct.unpack_from("<IHH", data, 13)
    off = 21
    name = {v: key for key, v in SCHEME_TAGS.items()}[tag]
    params = SchemeParams(n=n, k=k, d=d, t=t, l1=l1, l2=l2, scheme=name)
    scheme = make_scheme(params)
    field = scheme.field
    if (field.p, field.degree) != (p, m):
        raise ParameterError("field mismatch")
    if modlen:
        w = field.coord_width
        coeffs = tuple(int.from_bytes(data[off + i * w:off + (i + 1) * w], "little")
                       for i in range(modlen))
        off += modlen * w
        if coeffs != field.modulus:
            raise ParameterError("modulus mismatch")
    (count,) = struct.unpack_from("<H", data, off)
    off += 2
    sym_bytes = field.symbol_bytes
    if off + count * (2 + scheme.alpha * sym_bytes) != len(data):
        raise ParameterError("length mismatch")
    contents = []
    for _ in range(count):
        (node_id,) = struct.unpack_from("<H", data, off)
        off += 2
        syms = []
        for _ in range(scheme.alpha):
            syms.append(_symbol_oracle(field, data[off:off + sym_bytes]))
            off += sym_bytes
        contents.append(NodeContent(node_id, tuple(syms), scheme.layout))
    return params, contents


def _nodes(name, seed=3):
    scheme = make_scheme(INSTANCES[name])
    return scheme, scheme.encode(*scheme.random_inputs(seed))


def _valid_blobs():
    """Multi-record files of every scheme: all nodes, and every other node."""
    blobs = []
    for name in INSTANCES:
        scheme, nodes = _nodes(name)
        blobs.append(nodeio.write_nodes(scheme, nodes))
        blobs.append(nodeio.write_nodes(scheme, nodes[1::2]))
    return blobs


def _forged_blob(name, n, k, d, t, l1):
    return (struct.pack("<B6H", SCHEME_TAGS[name], n, k, d, t, l1, 0)
            + struct.pack("<IHH", 31, 44, 0) + struct.pack("<H", 0))


@pytest.fixture
def builds(monkeypatch):
    """Counts scheme constructions (by scheme name) and ExtField constructions,
    with an empty field cache so that every field a call needs is built."""
    counts = Counter()
    for cls in SCHEME_CLASSES.values():
        def init(self, params, _init=cls.__init__):
            counts[self.name] += 1
            _init(self, params)
        monkeypatch.setattr(cls, "__init__", init)

    def ext_init(self, base, m, _init=F.ExtField.__init__):
        counts["ExtField"] += 1
        _init(self, base, m)
    monkeypatch.setattr(F.ExtField, "__init__", ext_init)
    monkeypatch.setattr(F, "_FIELD_CACHE", {})
    return counts


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_read_matches_oracle_on_multi_record_files(name):
    scheme, nodes = _nodes(name)
    for records in (nodes, nodes[::-1], nodes[:1], nodes[2:], []):
        blob = nodeio.write_nodes(scheme, records)
        got = nodeio.read_nodes(blob)
        assert got == read_nodes_oracle(blob)
        assert got == (scheme.params, list(records))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_read_builds_no_scheme(name, builds):
    scheme, nodes = _nodes(name)
    blob = nodeio.write_nodes(scheme, nodes)
    builds.clear()
    params, contents = nodeio.read_nodes(blob)
    assert contents == nodes
    assert not any(builds[cls] for cls in SCHEME_CLASSES), builds


@pytest.mark.parametrize("forged", sorted(FORGED))
def test_forged_descriptor_builds_no_field_or_scheme(forged, builds):
    with pytest.raises(ParameterError, match="does not match|too large"):
        nodeio.read_nodes(_forged_blob(*FORGED[forged]))
    assert not builds, builds


def test_read_rejects_a_descriptor_that_differs_only_in_its_modulus():
    scheme, nodes = _nodes("mscr-dk")
    blob = bytearray(nodeio.write_nodes(scheme, nodes[:1]))
    blob[21] += 1  # the binomial's constant c0
    with pytest.raises(ParameterError, match="modulus mismatch"):
        nodeio.read_nodes(bytes(blob))
    # GF(7^9): the modulus count (bytes 19-20) set to 0 and its 10 coefficients cut
    no_modulus = blob[:19] + b"\x00\x00" + blob[31:]
    with pytest.raises(ParameterError, match="modulus mismatch"):
        nodeio.read_nodes(bytes(no_modulus))


VALID = _valid_blobs()
CALL_BUDGET_S = 1.0


def _flip(blob, flips):
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def _mutations():
    """Valid blobs truncated, byte-flipped or spliced, and random bytes."""
    blob = st.sampled_from(VALID)
    offset = st.integers(0, 400)
    truncated = st.builds(lambda b, cut: b[:cut], blob, offset)
    flipped = st.builds(_flip, blob, st.lists(st.tuples(offset, st.integers(1, 255)),
                                              min_size=1, max_size=4))
    spliced = st.builds(lambda a, b, i, j: a[:i] + b[j:], blob, blob, offset, offset)
    return st.one_of(truncated, flipped, spliced, st.binary(max_size=200))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=_mutations())
def test_read_nodes_fuzz_raises_only_value_errors_quickly(data):
    started = time.perf_counter()
    try:
        got = nodeio.read_nodes(data)
    except ValueError:  # ParameterError is a ValueError
        got = None
    assert time.perf_counter() - started < CALL_BUDGET_S
    if got is not None:
        # an accepted file decodes as the scheme build would decode it
        assert got == read_nodes_oracle(data)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_builds_one_scheme_per_command(name, builds, tmp_path):
    scheme, nodes = _nodes(name)
    paths = []
    for c in nodes:
        path = tmp_path / f"node_{c.node_id:02d}.bin"
        path.write_bytes(nodeio.write_nodes(scheme, [c]))
        paths.append(str(path))
    p = scheme.params
    builds.clear()
    assert main(["reconstruct", "--nodes", *paths[:p.k], "--out", str(tmp_path / "u.bin")]) == 0
    assert builds[name] == 1, builds
    builds.clear()
    failed = list(range(1, p.t + 1))
    assert main(["repair", "--nodes", *paths[p.t:], "--failed", ",".join(map(str, failed)),
                 "--out", str(tmp_path / "repaired")]) == 0
    assert builds[name] == 1, builds
    for i in failed:
        assert (tmp_path / "repaired" / f"node_{i:02d}.bin").read_bytes() \
            == Path(paths[i - 1]).read_bytes()


# ---------------------------------------------------------------------------
# the cached header checks against the uncached reader
# ---------------------------------------------------------------------------

def _outcome(read, data):
    """read(data), or the type and message of the exception it raised."""
    try:
        return read(data)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _malformed_corpus():
    """Every proper prefix of a valid file, every single-byte change in the
    first 21 bytes and in the field descriptor of each scheme's one-record
    file (with that file), and the forged headers (with None)."""
    for blob in VALID:
        for cut in range(len(blob)):
            yield blob[:cut], blob
    for name in sorted(INSTANCES):
        scheme, nodes = _nodes(name)
        blob = nodeio.write_nodes(scheme, nodes[:1])
        descriptor_end = 13 + len(nodeio._field_descriptor(scheme.field.p, scheme.field.degree))
        for pos in range(descriptor_end):
            for value in range(256):
                if value != blob[pos]:
                    yield blob[:pos] + bytes([value]) + blob[pos + 1:], blob
    for forged in FORGED.values():
        yield _forged_blob(*forged), None


def test_cached_header_reads_as_the_uncached_reader_on_malformed_files():
    checked = 0
    for data, valid in _malformed_corpus():
        want = _outcome(read_nodes_uncached, data)
        nodeio._header.cache_clear()
        assert _outcome(nodeio.read_nodes, data) == want, data[:40].hex()
        if valid is not None:
            nodeio.read_nodes(valid)  # its header is cached, unlike a refused one
        assert _outcome(nodeio.read_nodes, data) == want, data[:40].hex()
        checked += 1
    assert checked > 30000


@pytest.mark.parametrize("forged", sorted(FORGED))
def test_forged_header_raises_on_every_read(forged):
    blob = _forged_blob(*FORGED[forged])
    nodeio._header.cache_clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match="does not match|too large"):
            nodeio.read_nodes(blob)
    assert nodeio._header.cache_info().currsize == 0


def _valid_headers(count):
    """`count` distinct header prefixes that pass the header checks, from
    mscr-dk formats (modulus count 0)."""
    cls = SCHEME_CLASSES["mscr-dk"]
    out = []
    for n in range(4, 40):
        for k in range(1, n):
            for t in range(1, n - k + 1):
                for l1 in range(k):
                    params = SchemeParams(n=n, k=k, d=k, t=t, l1=l1, scheme="mscr-dk")
                    try:
                        p, m, _, _ = cls.node_format(params)
                    except ParameterError:
                        continue
                    out.append(struct.pack("<B6HIHH", SCHEME_TAGS["mscr-dk"], n, k, k, t,
                                           l1, 0, p, m, 0))
                    if len(out) == count:
                        return out
    raise AssertionError("too few headers")


def test_header_cache_stays_within_its_maxsize():
    nodeio._header.cache_clear()
    for prefix in _valid_headers(1000):
        with pytest.raises(ParameterError, match="modulus mismatch|truncated"):
            nodeio.read_nodes(prefix)
    info = nodeio._header.cache_info()
    assert info.misses == 1000 and info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# the writer writes only what the reader reads back
# ---------------------------------------------------------------------------

SCHEMES = {name: make_scheme(params) for name, params in INSTANCES.items()}


@st.composite
def _contents(draw):
    """A scheme and valid records for it: distinct node ids in any order,
    symbols drawn from the whole field."""
    name = draw(st.sampled_from(sorted(SCHEMES)))
    scheme = SCHEMES[name]
    f = scheme.field
    ids = draw(st.lists(st.integers(1, scheme.params.n), unique=True,
                        max_size=scheme.params.n))
    symbol = st.integers(0, f.order - 1).map(lambda i: elem_from_int(f, i))
    records = [NodeContent(i, tuple(draw(st.lists(symbol, min_size=scheme.alpha,
                                                   max_size=scheme.alpha))),
                           scheme.layout) for i in ids]
    return scheme, records


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_contents())
def test_write_nodes_round_trips_with_the_reference_bytes(case):
    scheme, records = case
    blob = nodeio.write_nodes(scheme, records)
    assert blob == write_nodes_per_coordinate(scheme, records)
    assert nodeio.read_nodes(blob) == (scheme.params, records)


def _with_symbol(record, index, value):
    symbols = list(record.symbols)
    symbols[index] = value
    return NodeContent(record.node_id, tuple(symbols), record.layout)


def _with_digit(field, a, index, digit):
    """a with its digit `index` replaced (any value below 2^db)."""
    if field.degree == 1:
        return digit
    db = field._db
    return a & ~(((1 << db) - 1) << (db * index)) | digit << (db * index)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_contents(), data=st.data())
def test_write_nodes_refuses_what_the_reader_refuses(case, data):
    scheme, records = case
    f, n = scheme.field, scheme.params.n
    if not records:
        records = [NodeContent(1, (f.zero,) * scheme.alpha, scheme.layout)]
    r = data.draw(st.integers(0, len(records) - 1))
    s = data.draw(st.integers(0, scheme.alpha - 1))
    kind = data.draw(st.sampled_from(["id-range", "id-repeat", "coordinate"]))
    if kind == "id-range":
        bad_id = data.draw(st.sampled_from([0, n + 1, 0xFFFF]))
        records[r] = NodeContent(bad_id, records[r].symbols, records[r].layout)
    elif kind == "id-repeat":
        records.insert(r + 1, records[data.draw(st.integers(0, r))])
    else:
        digit = data.draw(st.integers(f.char, 256 ** f.coord_width - 1))
        index = data.draw(st.integers(0, f.degree - 1))
        records[r] = _with_symbol(records[r], s, _with_digit(f, records[r].symbols[s], index, digit))
    want = _outcome(nodeio.read_nodes, write_nodes_per_coordinate(scheme, records))
    assert isinstance(want, tuple) and issubclass(want[0], ValueError), want
    assert _outcome(lambda _: nodeio.write_nodes(scheme, records), None) == want


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_write_nodes_refuses_symbols_it_cannot_write(name):
    """Digits past a coordinate's bytes, symbols past the m-th word and
    negative symbols raise ValueError instead of being written wrong or
    raising OverflowError."""
    scheme, nodes = _nodes(name)
    f = scheme.field
    record = nodes[0]
    last = scheme.alpha - 1  # the record's last symbol is replaced
    wide = 256 ** f.coord_width  # the first digit its bytes cannot hold
    if f.degree == 1:
        cases = {wide: f"coordinate {wide} out of range for GF({f.p})",
                 -1: f"coordinate -1 out of range for GF({f.p})"}
    else:
        past = f"symbol {last} lies outside the {f.m} coordinate words of GF({f.p}^{f.m})"
        cases = {_with_digit(f, record.symbols[last], f.m - 1, wide):
                 f"coordinate {wide} out of range for GF({f.p})",
                 _with_digit(f, record.symbols[last], 0, (1 << f._db) - 1):
                 f"coordinate {(1 << f._db) - 1} out of range for GF({f.p})",
                 record.symbols[last] | 1 << (f._db * f.m): past,
                 -1: past}
    for value, message in cases.items():
        with pytest.raises(ValueError) as info:
            nodeio.write_nodes(scheme, [_with_symbol(record, last, value)])
        assert str(info.value) == message


def test_gf7_9_digit_257_is_refused_not_written_as_1():
    scheme, nodes = _nodes("mscr-dk")
    f = scheme.field
    bad = _with_symbol(nodes[0], 0, _with_digit(f, nodes[0].symbols[0], 0, 257))
    with pytest.raises(ValueError, match=r"^coordinate 257 out of range for GF\(7\)$"):
        nodeio.write_nodes(scheme, [bad])


def test_write_nodes_refuses_parameters_past_the_header_fields():
    # mbcr-bivariate builds at n = 70000 (GF(70001)); its n has no 2-byte field
    scheme = make_scheme(SchemeParams(n=70000, k=2, d=3, t=3, scheme="mbcr-bivariate"))
    record = NodeContent(1, (0,) * scheme.alpha, scheme.layout)
    with pytest.raises(ParameterError, match="n=70000, k=2, d=3, t=3, l1=0, l2=0: "
                                             "a node file holds each in 2 bytes"):
        nodeio.write_nodes(scheme, [record])
