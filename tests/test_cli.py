import dataclasses
import functools
import io
import os
import resource
import struct
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import bounds as bounds_mod
from coopdss import field as F
from coopdss import sim as sim_mod
from coopdss.cli import main
from coopdss.codes import SCHEME_TAGS, MscrDkScheme, make_scheme, nodeio
from coopdss.codes.base import ParameterError, SchemeParams
from coopdss.precode import random_symbols
from coopdss.secrecy import rank_leakage

from nodeio_oracles import write_nodes_per_coordinate
from scheme_utils import symbol_from_bytes


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------
# node file serialization
# ---------------------------------------------------------

def test_nodeio_roundtrip():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    contents = scheme.encode(u, r)
    blob = nodeio.write_nodes(scheme, contents)
    params, decoded = nodeio.read_nodes(blob)
    assert params == scheme.params
    assert decoded == contents


def test_nodeio_header_layout():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    blob = nodeio.write_nodes(scheme, scheme.encode(u, r)[:1])
    assert blob[0] == 4  # scheme tag
    # n,k,d,t,l1,l2 little-endian 2 bytes each
    assert blob[1:13] == bytes([4, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0, 0])
    # field descriptor: p=5 (4 bytes), m=4 (2 bytes), modulus count 5
    assert blob[13:19] == bytes([5, 0, 0, 0, 4, 0])


def test_nodeio_rejects_truncation():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    blob = nodeio.write_nodes(scheme, scheme.encode(u, r))
    with pytest.raises(Exception):
        nodeio.read_nodes(blob + b"\x00")


def test_nodeio_rejects_every_proper_prefix():
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    blob = nodeio.write_nodes(scheme, scheme.encode(u, r)[:2])
    for cut in range(len(blob)):
        with pytest.raises(ParameterError, match="truncated"):
            nodeio.read_nodes(blob[:cut])


@pytest.mark.parametrize("size", [0, 3, 20, 30])
def test_reconstruct_short_node_file_exit2(tmp_path, size):
    # 0 and 3 bytes stop in the header, 20 in the field descriptor,
    # 30 inside the first record
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    good = [nodeio.write_nodes(scheme, [c]) for c in scheme.encode(u, r)]
    assert len(good[0]) > 30
    paths = []
    for i, blob in enumerate((good[0][:size], good[1]), start=1):
        path = tmp_path / f"node_{i:02d}.bin"
        path.write_bytes(blob)
        paths.append(str(path))
    code, out, err = run_cli(["reconstruct", "--nodes", *paths])
    assert code == 2
    assert "truncated" in err and "Traceback" not in err


def _reconstruct_with_first_record(tmp_path, scheme_name, rewrite):
    """CLI reconstruct of node 1's file, rewritten by `rewrite`, plus node 2's.
    The files are written by the unchecking reference writer, since
    `write_nodes` refuses the records these tests rewrite."""
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme=scheme_name))
    u, r = scheme.random_inputs(4)
    contents = scheme.encode(u, r)
    paths = []
    for i, records in enumerate((rewrite(contents[0]), [contents[1]]), start=1):
        path = tmp_path / f"node_{i:02d}.bin"
        path.write_bytes(write_nodes_per_coordinate(scheme, records))
        paths.append(str(path))
    return run_cli(["reconstruct", "--nodes", *paths])


@pytest.mark.parametrize("scheme_name", ["mscr-dk", "mbcr-exact"])
@pytest.mark.parametrize("node_id", [0, 5])
def test_reconstruct_node_id_out_of_range_exit2(tmp_path, scheme_name, node_id):
    code, out, err = _reconstruct_with_first_record(
        tmp_path, scheme_name, lambda c: [dataclasses.replace(c, node_id=node_id)])
    assert code == 2 and out == ""
    assert f"node id {node_id} outside [1, 4]" in err and "Traceback" not in err


@pytest.mark.parametrize("scheme_name", ["mscr-dk", "mbcr-exact"])
def test_reconstruct_node_id_repeated_in_file_exit2(tmp_path, scheme_name):
    code, out, err = _reconstruct_with_first_record(tmp_path, scheme_name, lambda c: [c, c])
    assert code == 2 and out == ""
    assert "node id 1 appears twice" in err and "Traceback" not in err


@pytest.mark.parametrize("tampered_last", [True, False])
def test_reconstruct_node_id_repeated_across_files_exit2(tmp_path, tampered_last):
    # node 1, node 2 and a copy of node 1 with one symbol replaced: either
    # order used to exit 0, one of them with a wrong secret
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u, r = scheme.random_inputs(4)
    node1, node2 = scheme.encode(u, r)[:2]
    f = scheme.field
    tampered = dataclasses.replace(
        node1, symbols=(f.add(node1.symbols[0], f.one),) + node1.symbols[1:])
    files = [node1, node2, tampered] if tampered_last else [tampered, node2, node1]
    paths = []
    for i, content in enumerate(files):
        path = tmp_path / f"file_{i}.bin"
        path.write_bytes(nodeio.write_nodes(scheme, [content]))
        paths.append(str(path))
    code, out, err = run_cli(["reconstruct", "--nodes", *paths])
    assert code == 2 and out == ""
    assert "node 1 is also in another node file" in err and "Traceback" not in err


def test_forged_large_n_header_field_mismatch_exit2(tmp_path):
    # an n = 8 mbcr-exact header (its field is GF(89^44)) that names GF(31^44):
    # building the scheme is a closed form, so the mismatch is reported at once
    blob = (struct.pack("<B6H", SCHEME_TAGS["mbcr-exact"], 8, 4, 7, 1, 2, 0)
            + struct.pack("<IHH", 31, 44, 0) + struct.pack("<H", 0))
    with pytest.raises(ParameterError, match="does not match"):
        nodeio.read_nodes(blob)
    path = tmp_path / "node_01.bin"
    path.write_bytes(blob)
    code, out, err = run_cli(["reconstruct", "--nodes", str(path)])
    assert code == 2 and out == ""
    assert "GF(31^44) does not match" in err and "Traceback" not in err


@pytest.mark.parametrize("scheme_name,n,k,d,t,budget_s,error", [
    # GF(1181^1180): 64-bit words, named by 23 bytes
    ("mbcr-exact", 40, 20, 39, 1, 5.0, "does not match"),
    # GF(241^10000); GF(211^10000), over next_prime(200), has no binomial
    ("mscr-dk", 200, 100, 100, 100, 5.0, "does not match"),
    # M = 10^6 and M = 11998000: the word-width check comes before p^M and Phi
    ("mscr-dk", 2000, 1000, 1000, 1000, 1.0, "too large"),
    ("mbcr-exact", 4000, 2000, 3999, 1, 1.0, "too large"),
    # mscr-ia's placement is a table over n in {4, 5}: no search for n = 30
    ("mscr-ia", 30, 2, 28, 2, 1.0, "only for n in {4, 5}, not n=30"),
    # M = 47996000 coefficients: refused before the support is built
    ("mbcr-bivariate", 8000, 4000, 7999, 1, 1.0, "too large"),
    # M = 2807761294: refused at the least candidate p = 117798, before the
    # prime search for p
    ("mbcr-exact", 62395, 33182, 55404, 6991, 1.0, "too large"),
], ids=["mbcr-exact-40", "mscr-dk-200", "mscr-dk-2000", "mbcr-exact-4000", "mscr-ia-30",
        "mbcr-bivariate-8000", "mbcr-exact-62395"])
def test_forged_header_exits_2_quickly(tmp_path, scheme_name, n, k, d, t, budget_s, error):
    blob = (struct.pack("<B6H", SCHEME_TAGS[scheme_name], n, k, d, t, 0, 0)
            + struct.pack("<IHH", 31, 44, 0) + struct.pack("<H", 0))
    path = tmp_path / "node_01.bin"
    path.write_bytes(blob)
    started = time.perf_counter()
    code, out, err = run_cli(["reconstruct", "--nodes", str(path)])
    assert time.perf_counter() - started < budget_s
    assert code == 2 and out == ""
    assert error in err and "Traceback" not in err


@pytest.mark.parametrize("scheme_name,n,k,d,t", [
    ("mbcr-exact", 62395, 33182, 55404, 6991),
    ("mscr-dk", 2000, 1000, 1000, 1000),
], ids=["mbcr-exact-62395", "mscr-dk-2000"])
def test_forged_wide_header_runs_no_primality_test(monkeypatch, scheme_name, n, k, d, t):
    calls = []
    is_prime = F._is_prime

    def counting_is_prime(v):
        calls.append(v)
        return is_prime(v)

    monkeypatch.setattr(F, "_is_prime", counting_is_prime)
    blob = (struct.pack("<B6H", SCHEME_TAGS[scheme_name], n, k, d, t, 0, 0)
            + struct.pack("<IHH", 31, 44, 0) + struct.pack("<H", 0))
    with pytest.raises(ParameterError, match="too large"):
        nodeio.read_nodes(blob)
    assert calls == []


# ---------------------------------------------------------
# bounds / table commands (golden vs library)
# ---------------------------------------------------------

def test_cmd_bounds_mbcr_golden():
    code, out, _ = run_cli(["bounds", "--n", "5", "--k", "3", "--d", "3", "--t", "2",
                            "--l1", "1", "--point", "mbcr"])
    assert code == 0
    assert "M=15" in out and "Ms=8" in out and "NRBW=0.8750" in out


def test_cmd_bounds_l1_zero_full_file():
    code, out, _ = run_cli(["bounds", "--k", "3", "--d", "3", "--t", "2",
                            "--l1", "0", "--point", "mbcr"])
    assert code == 0 and "Ms=15" in out and "M=15" in out


def test_cmd_bounds_mscr_case2():
    code, out, _ = run_cli(["bounds", "--point", "mscr", "--k", "2", "--d", "2",
                            "--t", "2", "--l1", "0", "--l2", "1"])
    assert code == 0 and "Ms=1" in out


def test_cmd_bounds_invalid_params_exit2():
    code, _, err = run_cli(["bounds", "--k", "3", "--d", "2", "--t", "1",
                            "--point", "mbcr"])
    assert code == 2 and "error" in err


def test_cmd_table_matches_library(tmp_path):
    out_file = tmp_path / "t.csv"
    code, _, _ = run_cli(["table", "--max-n", "5", "--constraint", "dt-le-n",
                          "--out", str(out_file)])
    assert code == 0
    assert out_file.read_text() == bounds_mod.table_csv(bounds_mod.nrbw_table(5, "d+t<=n"))


@pytest.mark.parametrize("max_n", [3, bounds_mod.MAX_TABLE_N + 1, 150])
def test_cmd_table_outside_size_bound_exit2(max_n, tmp_path, monkeypatch):
    # refused before any row is built: n = 150 once built every row of a
    # table of ~6e8 and died with a MemoryError
    monkeypatch.setattr(bounds_mod, "mbcr_secure_bound", None)  # would raise if reached
    out_file = tmp_path / "t.csv"
    code, out, err = run_cli(["table", "--max-n", str(max_n), "--constraint", "dt-le-n",
                              "--out", str(out_file)])
    assert code == 2 and f"[4, {bounds_mod.MAX_TABLE_N}]" in err
    assert out == "" and not out_file.exists()


# ---------------------------------------------------------
# encode / reconstruct / repair
# ---------------------------------------------------------

def test_encode_reconstruct_roundtrip(tmp_path):
    secret = bytes([0, 1, 2, 3, 4, 0, 1, 2])
    sf = tmp_path / "secret.bin"
    sf.write_bytes(secret)
    out_dir = tmp_path / "nodes"
    flags = ["--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2", "--t", "2",
             "--l1", "1"]
    code, out, _ = run_cli(["encode", *flags, "--secret", str(sf), "--seed", "5",
                            "--out", str(out_dir)])
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == [f"node_{i:02d}.bin" for i in range(1, 5)]

    # identical to a direct library call
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme="mscr-dk"))
    u = [symbol_from_bytes(scheme.field, secret[i:i + 4]) for i in range(0, 8, 4)]
    r = random_symbols(scheme.field, scheme.n_random, 5)
    expect = scheme.encode(u, r)
    for c in expect:
        blob = (out_dir / f"node_{c.node_id:02d}.bin").read_bytes()
        assert nodeio.read_nodes(blob)[1] == [c]

    # any k of n reconstruct the secret; all subsets agree
    import itertools
    for ids in itertools.combinations(range(1, 5), 2):
        paths = [str(out_dir / f"node_{i:02d}.bin") for i in ids]
        code, out, _ = run_cli(["reconstruct", "--nodes", *paths])
        assert code == 0 and out.strip() == secret.hex()

    # fewer than k nodes -> exit 2
    code, _, err = run_cli(["reconstruct", "--nodes", str(out_dir / "node_01.bin")])
    assert code == 2


def test_encode_wrong_secret_length(tmp_path):
    sf = tmp_path / "short.bin"
    sf.write_bytes(b"\x01\x02")
    code, _, err = run_cli(["encode", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                            "--d", "2", "--t", "2", "--l1", "1",
                            "--secret", str(sf), "--out", str(tmp_path / "x")])
    assert code == 2


def test_encode_rejects_out_of_range_byte(tmp_path):
    # GF(5) coordinates: byte values >= 5 are invalid
    sf = tmp_path / "bad.bin"
    sf.write_bytes(bytes([7] * 8))
    code, _, err = run_cli(["encode", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                            "--d", "2", "--t", "2", "--l1", "1",
                            "--secret", str(sf), "--out", str(tmp_path / "x")])
    assert code == 2 and "out of range" in err


def test_repair_writes_exact_nodes(tmp_path):
    secret = bytes([1, 2, 3, 4, 4, 3, 2, 1])
    sf = tmp_path / "s.bin"
    sf.write_bytes(secret)
    out_dir = tmp_path / "nodes"
    run_cli(["encode", "--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2",
             "--t", "2", "--l1", "1", "--secret", str(sf), "--seed", "1",
             "--out", str(out_dir)])
    rep = tmp_path / "rep"
    code, out, _ = run_cli(["repair", "--nodes", str(out_dir / "node_03.bin"),
                            str(out_dir / "node_04.bin"), "--failed", "1,2",
                            "--out", str(rep)])
    assert code == 0
    for i in (1, 2):
        assert (rep / f"node_{i:02d}.bin").read_bytes() == \
            (out_dir / f"node_{i:02d}.bin").read_bytes()


def test_repair_too_few_survivors_exit2(tmp_path):
    # exit 1 is reserved for a secrecy violation; one survivor where d = 2 is bad input
    sf = tmp_path / "s.bin"
    sf.write_bytes(bytes([1, 2, 3, 4, 4, 3, 2, 1]))
    out_dir = tmp_path / "nodes"
    assert run_cli(["encode", "--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2",
                    "--t", "2", "--l1", "1", "--secret", str(sf), "--seed", "7",
                    "--out", str(out_dir)])[0] == 0
    rep = tmp_path / "rep"
    code, out, err = run_cli(["repair", "--nodes", str(out_dir / "node_01.bin"),
                              "--failed", "3,4", "--out", str(rep)])
    assert code == 2 and out == ""
    assert "error: need at least d=2 surviving nodes, have 1" in err
    assert "Traceback" not in err and not rep.exists()


_NUMPY_PROBE = """
import sys
from pathlib import Path
from coopdss.cli import main
tmp = Path(sys.argv[1])
secret = bytes([1, 2, 3, 4, 4, 3, 2, 1])
(tmp / "s.bin").write_bytes(secret)
flags = ["--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2", "--t", "2", "--l1", "1"]
assert main(["encode", *flags, "--secret", str(tmp / "s.bin"), "--seed", "1",
             "--out", str(tmp / "nodes")]) == 0
nodes = [str(tmp / "nodes" / f"node_{i:02d}.bin") for i in (3, 4)]
assert main(["reconstruct", "--nodes", *nodes, "--out", str(tmp / "got.bin")]) == 0
assert (tmp / "got.bin").read_bytes() == secret
assert main(["repair", "--nodes", *nodes, "--failed", "1,2", "--out", str(tmp / "rep")]) == 0
after_data_path = "numpy" in sys.modules
# the brute-force oracle does load it, so the probe can see an import
assert main(["verify-secrecy", "--scheme", "insecure-demo", "--n", "3", "--k", "2", "--d", "2",
             "--t", "1", "--l1", "1", "--e1", "2", "--mode", "bruteforce"]) == 0
print(after_data_path, "numpy" in sys.modules)
"""


def test_data_path_commands_never_import_numpy(tmp_path):
    # a fresh interpreter: the test process has numpy loaded already
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "False True"


# ---------------------------------------------------------
# simulate / verify-secrecy
# ---------------------------------------------------------

SIM_INI = """[scheme]
scheme = mscr-dk
n = 4
k = 2
d = 2
t = 2
l2 = 1

[simulate]
plan = 1,2;1,3
seed = 9

[eavesdropper]
e2 = 1
"""


def test_simulate_and_verify_from_trace(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI)
    trace_file = tmp_path / "trace.log"
    code, out, err = run_cli(["simulate", "--config", str(cfg),
                              "--trace-out", str(trace_file)])
    assert code == 0
    assert "replay=ok" in err and "leakage_qunits=0" in err
    text = trace_file.read_text()
    assert text.startswith("header,mscr-dk,4,2,2,2,0,1,2,9")
    assert text.strip().endswith("final,ok")
    code, out, _ = run_cli(["verify-secrecy", "--trace", str(trace_file), "--e2", "1"])
    assert code == 0 and "leakage_qunits=0" in out


@pytest.mark.parametrize("text,record", [
    ("header,mbcr-exact,4\n", "header"),
    ("header,mscr-dk,4,2,2,2,0,1,2,9\ntransfer,0,1\n", "transfer"),
], ids=["short-header", "short-transfer"])
def test_verify_secrecy_malformed_trace_exit2(tmp_path, text, record):
    # exit 1 is reserved for a secrecy violation; a truncated record is bad input
    trace_file = tmp_path / "trace.log"
    trace_file.write_text(text)
    code, out, err = run_cli(["verify-secrecy", "--trace", str(trace_file), "--e2", "1"])
    assert code == 2 and out == ""
    assert f"{record} record has" in err


def _forge(lines, edit):
    """The trace `lines` with one forged record; line 1 is the header and
    line 2 the first transfer, `transfer,0,<src>,<dst>,live,<hex>`."""
    lines = list(lines)
    first = lines[1].split(",")
    if edit == "second-header":
        header = lines[0].split(",")
        lines.insert(1, ",".join(["header", "mbcr-exact", *header[2:]]))
    elif edit == "bogus-kind":
        lines[1] = ",".join(first[:4] + ["bogus"] + first[5:])
    elif edit == "round-past-header":
        lines[1] = ",".join(first[:1] + ["7"] + first[2:])
    elif edit == "negative-round":
        lines[1] = ",".join(first[:1] + ["-1"] + first[2:])
    elif edit == "non-integer-dst":
        lines[1] = ",".join(first[:3] + ["x"] + first[4:])
    elif edit == "non-integer-header":
        lines[0] = lines[0].replace(",2,", ",two,", 1)
    elif edit == "transfer-before-header":
        lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit,line,message", [
    ("second-header", 2, "a second header record"),
    ("bogus-kind", 2, "transfer record has kind 'bogus', neither live nor coop"),
    ("round-past-header", 2, "transfer record has round 7, outside [0, 2)"),
    ("negative-round", 2, "transfer record has round -1, outside [0, 2)"),
    ("non-integer-dst", 2, "transfer record has a non-integer field"),
    ("non-integer-header", 1, "header record has a non-integer field"),
    ("transfer-before-header", 1, "transfer record comes before the header"),
], ids=["second-header", "bogus-kind", "round-past-header", "negative-round",
        "non-integer-dst", "non-integer-header", "transfer-before-header"])
def test_verify_secrecy_forged_trace_exit2(tmp_path, edit, line, message):
    # each forged record is refused by line, exit 2, before any verdict: an
    # mbcr-bivariate trace given a second, mbcr-exact header once got its
    # verdict on mbcr-exact, and the other records were taken as they came
    lines = _simulate_trace("mbcr-bivariate").splitlines()
    assert lines[0].startswith("header,mbcr-bivariate,4,2,2,2,1,0,2,")
    assert lines[1].startswith("transfer,0,") and ",live," in lines[1]
    trace_file = tmp_path / "trace.log"
    trace_file.write_text(_forge(lines, edit))
    code, out, err = run_cli(["verify-secrecy", "--trace", str(trace_file), "--e1", "3"])
    assert (code, out) == (2, "")
    assert f"trace line {line}: {message}" in err and "Traceback" not in err


@functools.lru_cache(maxsize=None)
def _simulate_trace(scheme_name):
    """The trace text `simulate` writes for a two-round lifetime."""
    params = SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme=scheme_name)
    config = sim_mod.SimConfig(params=params, rounds=2, seed=9,
                               failure_plan=(frozenset({1, 2}), frozenset({1, 3})))
    return sim_mod.trace_to_text(sim_mod.run(config))


# replacement values for one comma-separated field of a trace line
TRACE_FIELD_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "2", "3", "4", "5", "65535", "65536", "live",
                     "coop", "header", "transfer", "mscr-dk", "mbcr-exact", "mbcr-bivariate",
                     "mscr-ia", "insecure-demo", "zz", "0102"]),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.text(max_size=8))


@st.composite
def mutated_traces(draw):
    lines = _simulate_trace(draw(st.sampled_from(["mscr-dk", "mbcr-exact"]))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["field", "field", "drop", "repeat"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        else:
            parts = lines[i].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TRACE_FIELD_VALUES)
            lines[i] = ",".join(parts)
        if not lines:
            break
    return "\n".join(lines) + "\n"


# printable text without surrogates, so that it encodes as UTF-8
TRACE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)
FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ_SETTINGS
@given(st.one_of(TRACE_TEXT, mutated_traces()))
def test_trace_parser_raises_only_value_error(text):
    try:
        sim_mod.trace_transfers_from_text(text)
    except ValueError:
        pass


@FUZZ_SETTINGS
@given(st.one_of(TRACE_TEXT, mutated_traces()),
       st.sampled_from([[], ["--e1", "3"], ["--e2", "1"], ["--e1", "4", "--e2", "1"]]))
def test_verify_secrecy_fuzzed_trace_exits_cleanly(text, eavesdroppers):
    # hostile trace text ends in a verdict or a clean error code, quickly
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.log"
        path.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        code, _, err = run_cli(["verify-secrecy", "--trace", str(path), *eavesdroppers])
        assert time.perf_counter() - started < 2.0
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def _edit_trace(text, edit):
    if edit == "helper-0":  # helper 3 of round 0 renamed to 0, which would index node n
        return text.replace("transfer,0,3,", "transfer,0,0,")
    # drop helper 4 of round 0: one helper where d = 2
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("transfer,0,4,"))


@pytest.mark.parametrize("edit", ["helper-0", "one-helper"])
def test_verify_secrecy_invalid_transcript_exit2(tmp_path, edit):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI)
    trace_file = tmp_path / "trace.log"
    assert run_cli(["simulate", "--config", str(cfg), "--trace-out", str(trace_file)])[0] == 0
    trace_file.write_text(_edit_trace(trace_file.read_text(), edit))
    code, out, err = run_cli(["verify-secrecy", "--trace", str(trace_file), "--e2", "1"])
    assert code == 2 and out == ""
    assert "d=2 distinct helper ids" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--e1", "--e2"])
@pytest.mark.parametrize("node", ["0", "5"])
def test_verify_secrecy_eavesdropper_outside_nodes_exit2(flag, node):
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--l1", "1", flag, node])
    # an E2 node outside [1, n] already fails the default repair plan
    assert code == 2 and out == ""
    assert "node ids must lie in [1, " in err and "Traceback" not in err


@pytest.mark.parametrize("node", ["9", "0"])
def test_verify_secrecy_bruteforce_eavesdropper_outside_nodes_exit2(node):
    # the oracle validates the ids before it probes the protocol
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-ia", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--l1", "1", "--e1", node,
                              "--mode", "bruteforce"])
    assert code == 2 and out == ""
    assert "eavesdropped node ids must lie in [1, 4]" in err and "Traceback" not in err


def _assert_over_budget(code, out, err, message):
    # one line naming both counts and both budgets, no verdict printed
    assert code == 2 and out == ""
    assert err == f"error: {message}: the scheme claims secrecy only for " \
                  "|E1| <= l1 and |E2| <= l2\n"


@pytest.mark.parametrize("mode", ["rank", "bruteforce", "both"])
@pytest.mark.parametrize("flags, message", [
    # two E1 nodes hold the whole secret, but the scheme claims l1 = 1
    (["--scheme", "mscr-ia", "--n", "4", "--k", "2", "--d", "2", "--t", "2", "--l1", "1",
      "--e1", "1,2"], "|E1|=2 with l1=1 and |E2|=0 with l2=0"),
    (["--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2", "--t", "2", "--l2", "1",
      "--e2", "1,2", "--plan", "1,2"], "|E1|=0 with l1=0 and |E2|=2 with l2=1"),
], ids=["e1", "e2"])
def test_verify_secrecy_over_budget_eavesdroppers_exit2(flags, message, mode):
    _assert_over_budget(*run_cli(["verify-secrecy", *flags, "--mode", mode]), message)


def test_verify_secrecy_disjointness_is_checked_before_the_budget():
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--e1", "1", "--e2", "1",
                              "--plan", "1,2"])
    assert code == 2 and out == ""
    assert "E1 and E2 must be disjoint" in err and "|E1|" not in err


@pytest.mark.parametrize("eavesdroppers, message", [
    (["--e1", "4"], "|E1|=1 with l1=0 and |E2|=0 with l2=1"),
    (["--e2", "1,2"], "|E1|=0 with l1=0 and |E2|=2 with l2=1"),
], ids=["e1", "e2"])
def test_verify_secrecy_trace_over_budget_eavesdroppers_exit2(tmp_path, eavesdroppers, message):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI)
    trace_file = tmp_path / "trace.log"
    assert run_cli(["simulate", "--config", str(cfg), "--trace-out", str(trace_file)])[0] == 0
    _assert_over_budget(*run_cli(["verify-secrecy", "--trace", str(trace_file),
                                  *eavesdroppers]), message)


def test_simulate_over_budget_eavesdroppers_exit2(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI.replace("e2 = 1", "e1 = 4\ne2 = 1,2"))
    code, out, err = run_cli(["simulate", "--config", str(cfg),
                              "--trace-out", str(tmp_path / "trace.log")])
    assert code == 2 and out == ""
    # the replay line, then the refusal: no leakage is reported
    replay, refusal = err.splitlines()
    assert replay.endswith("replay=ok") and "leakage" not in err
    assert refusal == "error: |E1|=1 with l1=0 and |E2|=2 with l2=1: the scheme claims " \
                      "secrecy only for |E1| <= l1 and |E2| <= l2"


def test_simulate_repairs_run_twice_per_round(tmp_path, monkeypatch):
    # one repair per round in sim.run, one in the replay that writes the
    # trace text; the replay line on stderr reuses that verdict
    calls = []
    real_repair = MscrDkScheme.cooperative_repair

    def counted(self, failed, survivors, helpers=None):
        calls.append(failed)
        return real_repair(self, failed, survivors, helpers)

    monkeypatch.setattr(MscrDkScheme, "cooperative_repair", counted)
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI)
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 0 and out.strip().endswith("final,ok") and "replay=ok" in err
    assert len(calls) == 2 * 2


def test_simulate_bandwidth_fault_exit3(tmp_path, monkeypatch):
    # a repair that drops one live transfer misses the t*gamma bandwidth
    real_repair = MscrDkScheme.cooperative_repair

    def short_repair(self, failed, survivors, helpers=None):
        tr = real_repair(self, failed, survivors, helpers)
        live = dict(tr.live_transfers)
        live.pop(min(live))
        return dataclasses.replace(tr, live_transfers=live)

    monkeypatch.setattr(MscrDkScheme, "cooperative_repair", short_repair)
    params = SchemeParams(n=4, k=2, d=2, t=2, l2=1, scheme="mscr-dk")
    with pytest.raises(sim_mod.ProtocolError, match="bandwidth 5 != t[*]gamma 6"):
        sim_mod.run(sim_mod.SimConfig(params=params, rounds=1,
                                      failure_plan=(frozenset({1, 2}),), e2=(1,)))
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI)
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 3
    assert "protocol fault: round 0: bandwidth" in err


def _limit_address_space():
    # 400000 KiB, as in CI: a config that allocates per round fails fast
    resource.setrlimit(resource.RLIMIT_AS, (400_000 << 10, 400_000 << 10))


def test_simulate_huge_rounds_exit2_in_subprocess(tmp_path):
    # 10^8 rounds and no plan: refused before any failure set is drawn, not a
    # MemoryError traceback with exit 1, the code of a secrecy violation
    cfg = tmp_path / "huge.ini"
    cfg.write_text(SIM_INI.split("[simulate]")[0] + "[simulate]\nrounds = 100000000\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coopdss.cli", "simulate", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "rounds=100000000 is outside [0, 65535]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_secrecy_plan_beyond_trace_header_bound_exit2():
    plan = ";".join(["1,2"] * sim_mod.HEADER_BOUND)
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--l2", "1", "--e2", "1", "--plan", plan])
    assert code == 2 and out == ""
    assert f"rounds={sim_mod.HEADER_BOUND} is outside" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("[simulate]\nrounds = 1\n", "no [scheme] section"),
    ("scheme = mscr-dk\nn = 4\n", "no section headers"),
    ("[scheme]\nscheme = mscr-dk\nn = 4\nk = 2\nd = 2\n", "[scheme] lacks t"),
    (SIM_INI.split("[simulate]")[0] + "[simulate]\nrounds = -1\n",
     "rounds must be >= 0, got -1"),
    ("[scheme]\nscheme = mscr-dk\nn = 4%\nk = 2\nd = 2\nt = 2\n", "invalid literal"),
    (SIM_INI.split("[simulate]")[0] + "[simulate]\nrounds = 0\nhelpers = bogus\n",
     "unknown helper mode 'bogus'"),
], ids=["no-scheme-section", "no-section-header", "no-t", "negative-rounds", "percent-in-value",
        "unknown-helper-mode"])
def test_simulate_malformed_config_exit2(tmp_path, text, message):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(text)
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text, unknown", [
    (SIM_INI.split("[simulate]")[0] + "[simulate]\nround = 5\n\n[eavesdroper]\ne2 = 1\n",
     "key round in [simulate], section [eavesdroper]"),
    ("[DEFAULT]\nseed = 3\n\n" + SIM_INI, "key seed in [DEFAULT]"),
    (SIM_INI.replace("l2 = 1", "l2 = 1\nl3 = 1").replace("e2 = 1", "e2 = 1\ne3 = 2"),
     "key l3 in [scheme], key e3 in [eavesdropper]"),
], ids=["misspelled-key-and-section", "default-section", "two-keys"])
def test_simulate_refuses_unknown_config_sections_and_keys(tmp_path, text, unknown):
    # `round = 5` and a section [eavesdroper] once ran one round with no
    # eavesdropper and exit 0: every section and key is used or refused
    cfg = tmp_path / "sim.ini"
    cfg.write_text(text)
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: config {cfg}: unknown {unknown}\n"


def test_readme_simulate_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A `simulate` config file mirrors the flags:")[1]
    cfg = tmp_path / "sim.ini"
    cfg.write_text(block.split("```ini\n")[1].split("```")[0])
    code, _, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 0 and "replay=ok" in err and "leakage_qunits=0" in err


def test_verify_secrecy_e2_bandwidth_fault_exit3(monkeypatch):
    # the --e2 repair plan runs through sim.run, which checks every round
    real_repair = MscrDkScheme.cooperative_repair

    def short_repair(self, failed, survivors, helpers=None):
        tr = real_repair(self, failed, survivors, helpers)
        live = dict(tr.live_transfers)
        live.pop(min(live))
        return dataclasses.replace(tr, live_transfers=live)

    monkeypatch.setattr(MscrDkScheme, "cooperative_repair", short_repair)
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--l2", "1", "--e2", "1"])
    assert code == 3 and out == ""
    assert "protocol fault: round 0: bandwidth 5 != t*gamma 6" in err


def test_verify_secrecy_sweep_exit_codes():
    import itertools
    for e in range(1, 5):
        code, out, _ = run_cli(["verify-secrecy", "--scheme", "mbcr-exact", "--n", "4",
                                "--k", "2", "--d", "2", "--t", "2", "--l1", "1",
                                "--e1", str(e)])
        assert code == 0 and "leakage_qunits=0" in out


def test_verify_secrecy_negative_control_exit1():
    code, out, _ = run_cli(["verify-secrecy", "--scheme", "insecure-demo", "--n", "3",
                            "--k", "2", "--d", "2", "--t", "1", "--l1", "1",
                            "--e1", "1", "--mode", "both"])
    assert code == 1
    assert out.count("leakage_qunits=1") == 2


def test_verify_secrecy_mode_both_agreement():
    code, out, _ = run_cli(["verify-secrecy", "--scheme", "mscr-ia", "--n", "4",
                            "--k", "2", "--d", "2", "--t", "2", "--l1", "1",
                            "--e1", "3", "--mode", "both"])
    assert code == 0
    assert "method=rank leakage_qunits=0" in out
    assert "method=bruteforce leakage_qunits=0" in out


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPDSS_SEED", "123")
    secret = bytes([0, 1, 2, 3, 4, 0, 1, 2])
    sf = tmp_path / "s.bin"
    sf.write_bytes(secret)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    flags = ["--scheme", "mscr-dk", "--n", "4", "--k", "2", "--d", "2", "--t", "2",
             "--l1", "1", "--secret", str(sf)]
    assert run_cli(["encode", *flags, "--out", str(d1)])[0] == 0
    assert run_cli(["encode", *flags, "--seed", "123", "--out", str(d2)])[0] == 0
    for i in range(1, 5):
        name = f"node_{i:02d}.bin"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_usage_error_exit2():
    code, _, _ = run_cli(["verify-secrecy", "--e1", "1"])  # no scheme, no trace
    assert code == 2


def test_verify_secrecy_mode_both_disagreement_exit3(monkeypatch):
    # a lemma flag that differs is a fault in the program, not a violation
    def wrong_flag(scheme, e1, e2, transcripts):
        return dataclasses.replace(rank_leakage(scheme.observation_matrix(e1, e2, transcripts)),
                                   lemma_recoverable_ok=False, method="bruteforce")

    monkeypatch.setattr("coopdss.cli.brute_force_leakage", wrong_flag)
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-ia", "--n", "4",
                              "--k", "2", "--d", "2", "--t", "2", "--l1", "1",
                              "--e1", "3", "--mode", "both"])
    assert code == 3
    assert "method=rank leakage_qunits=0 lemma_entropy_ok=True lemma_recoverable_ok=True" in out
    assert "method=bruteforce leakage_qunits=0 lemma_entropy_ok=True lemma_recoverable_ok=False" in out
    assert "disagree" in err


@pytest.mark.parametrize("plan, group", [
    ("99999999999999999999,2", "99999999999999999999,2"), ("1", "1"), ("1,1", "1,1"),
    (";;", ""), ("1,2;", ""), ("1,2;5,1", "5,1"), ("1,x", "1,x"),
], ids=["huge-id", "short", "repeated", "empty", "trailing-empty", "outside-n", "not-an-int"])
def test_verify_secrecy_refuses_a_bad_plan_without_e2(plan, group):
    # the plan is parsed against the scheme whether or not --e2 asks for it
    code, out, err = run_cli(["verify-secrecy", "--scheme", "mscr-dk", "--n", "4", "--k", "2",
                              "--d", "2", "--t", "2", "--l1", "1", "--plan", plan])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: failure plan group {group!r}: need t=2 distinct node ids in [1, 4]\n"


@pytest.mark.parametrize("plan", [";;", "1,2;;1,3", "1;2", "1,2,3", "0,1"])
def test_simulate_refuses_a_bad_plan(tmp_path, plan):
    # ';;' once ran zero rounds with exit 0
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_INI.replace("plan = 1,2;1,3", f"plan = {plan}"))
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 2 and out == "" and "failure plan group" in err


@pytest.mark.parametrize("fault, line", [
    (KeyError("missing"), "program fault: KeyError: 'missing'"),
    (TypeError("first\nsecond"), "program fault: TypeError: first"),
], ids=["key-error", "two-line-message"])
def test_program_fault_exits_3_on_one_line(monkeypatch, fault, line):
    # an exception that is not a usage, I/O or protocol error is a program
    # fault: exit 3 and one line naming its type, never exit 1, which is a
    # secrecy verdict's alone
    def broken(*args):
        raise fault

    monkeypatch.setattr(bounds_mod, "mbcr_point", broken)
    code, out, err = run_cli(["bounds", "--k", "2", "--d", "3", "--t", "1", "--point", "mbcr"])
    assert (code, out, err) == (3, "", line + "\n")
