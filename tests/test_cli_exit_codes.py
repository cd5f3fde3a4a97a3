"""Exit codes by construction, for every subcommand: over generated argv,
config text, trace text and node bytes, `main` returns 0, 1, 2 or 3 and
never raises, stderr never holds a traceback, and exit 1 (a secrecy
violation) comes only with a printed `leakage_qunits=` verdict line.

Each invocation starts valid (flags of a small instance that builds, node
files it wrote, a config and a trace it runs) and takes up to three edits:
a value replaced, a token dropped or added, or a file's bytes changed."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from coopdss import sim as sim_mod
from coopdss.cli import SCHEME_CHOICES, main
from coopdss.codes import make_scheme, nodeio
from coopdss.codes.base import SchemeParams

# small instances that build: (scheme, n, k, d, t, l1, l2)
VALID = [("mbcr-exact", 4, 2, 2, 2, 1, 0), ("mscr-dk", 4, 2, 2, 2, 0, 1),
         ("mbcr-bivariate", 5, 2, 2, 2, 1, 0), ("mscr-ia", 4, 2, 2, 2, 0, 1),
         ("insecure-demo", 3, 2, 2, 1, 1, 0), ("mscr-dk", 5, 3, 3, 2, 1, 1)]
SCHEMES = [make_scheme(SchemeParams(*nums, scheme=name)) for name, *nums in VALID]
# each instance's node files
BLOBS = [[nodeio.write_nodes(s, [c]) for c in s.encode(*s.random_inputs(2))] for s in SCHEMES]
VALUES = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x", "", "2.5", "1,2", "1;2", ",",
                          "65536", "99999999999999999999", "bogus", "lowest", "random"])


def _flags(i):
    name, n, k, d, t, l1, l2 = VALID[i]
    return ["--scheme", name, "--n", str(n), "--k", str(k), "--d", str(d), "--t", str(t),
            "--l1", str(l1), "--l2", str(l2)]


def _plan(draw, i, rounds):
    n, t = VALID[i][1], VALID[i][4]
    return ";".join(",".join(map(str, draw(st.lists(st.integers(1, n), min_size=t, max_size=t,
                                                    unique=True))))
                    for _ in range(rounds))


@st.composite
def valid_invocations(draw):
    """(argv, files) that the CLI accepts; argv names each file by its
    placeholder, filled in with its path in a scratch directory."""
    cmd = draw(st.sampled_from(["bounds", "table", "encode", "reconstruct", "repair",
                                "simulate", "verify-secrecy"]))
    i = draw(st.integers(0, len(VALID) - 1))
    scheme, (name, n, k, d, t, l1, l2) = SCHEMES[i], VALID[i]
    ids = draw(st.permutations(range(1, n + 1)))
    if cmd == "bounds":
        return [cmd, "--k", str(k), "--d", str(d), "--t", str(t), "--l1", str(l1),
                "--point", draw(st.sampled_from(["mbcr", "mscr"]))], {}
    if cmd == "table":
        return [cmd, "--max-n", draw(st.sampled_from(["4", "5"])),
                "--constraint", draw(st.sampled_from(["dt-eq-n", "dt-le-n"]))], {}
    if cmd == "encode":
        size = scheme.secure_size * scheme.field.symbol_bytes
        return ([cmd, *_flags(i), "--secret", "{secret}", "--seed", "3", "--out", "{dir}/out"],
                {"secret": bytes(draw(st.lists(st.integers(0, 4), min_size=size,
                                               max_size=size)))})
    if cmd in ("reconstruct", "repair"):
        given = ids[:k] if cmd == "reconstruct" else ids[t:]
        files = {f"node{j}": BLOBS[i][j - 1] for j in given}
        argv = [cmd, "--nodes", *(f"{{node{j}}}" for j in given), "--out", "{dir}/out"]
        return argv + (["--failed", ",".join(map(str, ids[:t]))] if cmd == "repair" else []), files
    if cmd == "simulate":
        e1, e2 = sorted(ids[:l1]), sorted(ids[l1:l1 + l2])
        config = ["[scheme]", f"scheme = {name}", f"n = {n}", f"k = {k}", f"d = {d}",
                  f"t = {t}", f"l1 = {l1}", f"l2 = {l2}", "[simulate]",
                  f"seed = {draw(st.integers(0, 9))}",
                  f"helpers = {draw(st.sampled_from(['lowest', 'random']))}",
                  (f"plan = {_plan(draw, i, 3)}" if draw(st.booleans())
                   else f"rounds = {draw(st.integers(0, 3))}"),
                  "[eavesdropper]", f"e1 = {','.join(map(str, e1))}",
                  f"e2 = {','.join(map(str, e2))}"]
        return ([cmd, "--config", "{config}", "--trace-out", "{dir}/trace.txt"],
                {"config": "\n".join(config).encode()})
    # verify-secrecy, past its budget at times: insecure-demo leaks at l1 = 1
    e1 = ids[:draw(st.sampled_from([l1, l1, 0, l1 + 1]))]
    argv = [cmd, *_flags(i), "--e1", ",".join(map(str, e1)),
            "--mode", draw(st.sampled_from(["rank", "rank", "bruteforce", "both"]))]
    if l2:
        argv += ["--e2", str(ids[0]), "--plan", _plan(draw, i, draw(st.integers(1, 2)))]
    if draw(st.booleans()) and l2:  # the lifetime of a simulate trace instead of the flags
        plan = tuple(frozenset(map(int, g.split(","))) for g in _plan(draw, i, 2).split(";"))
        trace = sim_mod.run(sim_mod.SimConfig(params=scheme.params, rounds=2, failure_plan=plan))
        return ([cmd, "--trace", "{trace}", "--e2", ",".join(map(str, sorted(plan[0])[:1]))],
                {"trace": sim_mod.trace_to_text(trace).encode()})
    return argv, {}


@st.composite
def edited(draw, data):
    how = draw(st.integers(0, 4))
    if how == 0:
        return draw(st.binary(max_size=48))
    if how == 1 or not data:
        return data[:draw(st.integers(0, len(data)))]
    at = draw(st.integers(0, len(data) - 1))
    if how == 2:
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    lines = data.split(b"\n")  # config or trace text: a line replaced or added
    line = draw(st.sampled_from([b"", b"x", b"[eavesdroper]", b"round = 5", b"header,bogus",
                                 b"transfer,0,1,2,live,00", b"[DEFAULT]", b"%(x)s", *lines]))
    at = draw(st.integers(0, len(lines)))
    return b"\n".join(lines[:at] + [line] + lines[at + (how == 3):])


@st.composite
def invocations(draw):
    argv, files = draw(valid_invocations())
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.integers(0, 3))
        if how == 0 and files:
            name = draw(st.sampled_from(sorted(files)))
            files[name] = draw(edited(files[name]))
        elif how == 1 and len(argv) > 1:
            at = draw(st.integers(1, len(argv) - 1))
            if argv[at].startswith("--"):
                del argv[at]
            else:
                argv[at] = draw(VALUES)
        else:
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from(["--bogus", "-", "1", "1:{dir}", "{dir}", "--e2",
                                              "--plan", "--mode", "--out", *SCHEME_CHOICES])))
    return argv, files


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_exit_code_is_one_of_four_and_exit_1_is_a_verdict(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp}
        for name, data in files.items():
            paths[name] = str(Path(tmp, name))
            Path(paths[name]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # an edited output path is relative: keep it in the scratch directory
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([arg.format(**paths) for arg in argv])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert "leakage_qunits=" in out.getvalue() + err.getvalue(), argv
