"""Node files read without a scheme build, against the build-the-scheme oracle.

`read_nodes_oracle` builds the scheme from the header with `make_scheme`,
takes the field, alpha and layout from it, and decodes every symbol on its
own, coordinate by coordinate.
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
