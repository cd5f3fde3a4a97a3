"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Runs one small pass of each workload through the harness, then feeds
deliberately corrupted results into the checks (made here, never in src/)
and requires each to count as a failure.
"""

import dataclasses

import pytest

import run

run._import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def passes():
    return {w: workloads.make_pass(w, workloads.setup(w), SEED) for w in workloads.WORKLOADS}


def _one_pass(ops, tracer=None):
    res = run.measure(ops, 0, 0, tracer)
    run.crosscheck(ops, res)
    return res


def _first(ops, kind, name=""):
    return next(op for op in ops if op.kind == kind and op.label.startswith(name))


def _corrupted(op, corrupt):
    return dataclasses.replace(op, run=lambda: corrupt(op.run()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_pass_has_no_failures(passes, workload):
    ops = passes[workload]
    res = _one_pass(ops)
    assert res.attempted == len(ops)
    assert res.failed == 0, res.failures


def test_pass_is_a_function_of_the_seed(passes):
    again = workloads.make_pass("datapath", workloads.setup("datapath"), SEED)
    assert [op.label for op in again] == [op.label for op in passes["datapath"]]


def test_flipped_secret_symbol_is_a_failure(passes):
    op = _first(passes["datapath"], "reconstruct")

    def flip(secret):
        copy = list(secret)
        copy[0] ^= 1
        return tuple(copy)

    res = _one_pass([_corrupted(op, flip)])
    assert res.failed == 1


def test_flipped_byte_in_a_repaired_file_is_a_failure(passes):
    op = _first(passes["datapath"], "repair")

    def flip(result):
        tr, written = result
        node = min(written)
        blob = bytearray(written[node])
        blob[-1] ^= 1
        return tr, {**written, node: bytes(blob)}

    res = _one_pass([_corrupted(op, flip)])
    assert res.failed == 1


def test_always_secure_verdict_fails_the_negative_control(passes):
    op = _first(passes["sweep"], "verdict", "insecure-demo")

    def always_secure(verdict):
        return dataclasses.replace(verdict, leakage_qunits=0)

    res = _one_pass([_corrupted(op, always_secure)])
    assert res.failed == 1


def test_base_field_cross_check_catches_a_wrong_leakage(passes):
    op = _first(passes["sweep"], "verdict", "mbcr-exact")

    def leaking(verdict):
        return dataclasses.replace(verdict, leakage_qunits=1)

    # the op's own check would also catch it; bypass it to reach the cross-check
    res = _one_pass([dataclasses.replace(_corrupted(op, leaking), check=lambda out: None)])
    assert res.failed == 1
    assert "base-field" in res.failures[0]


def test_raising_op_is_a_failure(passes):
    op = _first(passes["lifetime"], "lifetime")

    def boom():
        raise RuntimeError("injected")

    res = _one_pass([dataclasses.replace(op, run=boom)])
    assert res.failed == 1


def test_traced_counts_repeat_exactly(passes):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _one_pass(passes["lifetime"], tracer)
        finally:
            tracer.uninstall()
        counts.append(run._count_metrics(tracer.layer_metrics()))
    assert counts[0] == counts[1]
    assert counts[0]["sim.replay_check_calls"] == 2 * len(passes["lifetime"])


def test_uninstall_restores_the_program():
    from coopdss import field, secrecy, sim
    from coopdss.codes import mbcr_exact

    before = (field.ExtField.mul, field.Matrix.solve, secrecy.rank_leakage, sim.run,
              mbcr_exact.moore_matrix, mbcr_exact.MbcrExactScheme.encode)
    tracer = tracing.Tracer()
    tracer.install()
    assert mbcr_exact.moore_matrix is not before[4]
    tracer.uninstall()
    after = (field.ExtField.mul, field.Matrix.solve, secrecy.rank_leakage, sim.run,
             mbcr_exact.moore_matrix, mbcr_exact.MbcrExactScheme.encode)
    assert after == before
