import dataclasses
import io
import os
from contextlib import redirect_stderr, redirect_stdout
import pytest

from coopdss import bounds as bounds_mod
from coopdss import sim as sim_mod
from coopdss.cli import main
from coopdss.codes import MscrDkScheme, make_scheme, nodeio
from coopdss.codes.base import ParameterError, SchemeParams
from coopdss.precode import random_symbols


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
    """CLI reconstruct of node 1's file, rewritten by `rewrite`, plus node 2's."""
    scheme = make_scheme(SchemeParams(n=4, k=2, d=2, t=2, l1=1, scheme=scheme_name))
    u, r = scheme.random_inputs(4)
    contents = scheme.encode(u, r)
    paths = []
    for i, records in enumerate((rewrite(contents[0]), [contents[1]]), start=1):
        path = tmp_path / f"node_{i:02d}.bin"
        path.write_bytes(nodeio.write_nodes(scheme, records))
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
    u = [scheme.field.symbol_from_bytes(secret[i:i + 4]) for i in range(0, 8, 4)]
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
