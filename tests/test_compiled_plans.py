"""Plans compiled to straight-line code (`ExtField.compile_plan`) against the
per-step reference `oracles.run_steps`: random GF(p^m) programs, rows long
enough to need folds, flat sums or `dot`'s chunked path, GF(p) too wide for
packed lanes, and coefficients that are not ints."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coopdss import field as F
from coopdss.codes import make_scheme
from coopdss.codes.base import SchemeParams

import oracles as O

# a step's reduction takes folds from 1593 terms on GF(7^9) and from 50 on
# GF(43^21), both in 32-bit words, and from 33656 on GF(331^55), 64-bit words
FIELDS = [(7, 9), (43, 21), (331, 55)]


def _reference(field, n_in, steps, out, vals):
    vals = list(vals)
    O.run_steps(field, steps, vals)
    return tuple(vals[j] for j in out)


def _element(field, rng):
    return field.from_coords([rng.randrange(field.p) for _ in range(field.degree)])


def _run_long_row(field, length, seed):
    """One step of `length` terms over 8 inputs, the largest digits among
    them, with a coefficient p - 1 in every other term."""
    p, rng = field.p, random.Random(seed)
    vals = [_element(field, rng) for _ in range(7)] + [field.from_coords([p - 1] * field.degree)]
    src = tuple(rng.randrange(8) for _ in range(length))
    row = tuple(p - 1 if i % 2 else rng.randrange(p) for i in range(length))
    steps = [(row, src), ((p - 1,) * 3, (7, 7, 8))]
    run = O.compile_values(field, 8, steps, [8, 9, 0])
    want = _reference(field, 8, steps, [8, 9, 0], vals)
    assert want[0] == field.dot(row, [vals[j] for j in src])
    assert run(vals) == want
    return field._step_plan(length)


@st.composite
def random_plans(draw):
    """A random straight-line program over GF(p^m) with its input values:
    rows of 1 to 80 terms, so some take folds (GF(43^21) from 50 terms) and
    some the flat `sum(map(...))` form (past `_FLAT_TERMS`)."""
    p, m = draw(st.sampled_from(FIELDS))
    field, rng = F.ext_field(p, m), draw(st.randoms(use_true_random=False))
    n_in = draw(st.integers(0, 8))
    steps = []
    for slot in range(n_in, n_in + draw(st.integers(0 if n_in else 1, 12))):
        length = draw(st.one_of(st.integers(1, 6), st.integers(40, 80))) if slot else 0
        src = tuple(rng.randrange(slot) for _ in range(length))
        steps.append((tuple(rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in src), src))
    n_slots = n_in + len(steps)
    out = draw(st.lists(st.integers(0, n_slots - 1), max_size=10)) if n_slots else []
    digits = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    vals = [field.from_coords(draw(st.lists(digits, min_size=m, max_size=m)))
            for _ in range(n_in)]
    return field, n_in, steps, out, vals


@settings(max_examples=80, deadline=None)
@given(random_plans())
def test_compiled_plan_equals_per_step_reference(instance):
    field, n_in, steps, out, vals = instance
    run = O.compile_values(field, n_in, steps, out)
    want = _reference(field, n_in, steps, out, vals)
    assert run(list(vals)) == want and run(tuple(vals)) == want
    assert run.__qualname__.startswith("ExtField.compile_plan")


@pytest.mark.parametrize("p,m,length,folds", [(7, 9, 3000, 1), (331, 55, 33656, 1)])
def test_a_row_too_long_for_one_expression(p, m, length, folds):
    # one chain of 3000 additions is too deep for the compiler; the long row
    # is one flat sum, and here its reduction takes a fold
    assert length > F._FLAT_TERMS
    plan = _run_long_row(F.ext_field(p, m), length, length)
    assert len(plan[0]) == folds


@pytest.mark.parametrize("length", [4128, 4129])
def test_a_row_past_the_word_bound_calls_dot(length):
    # GF(1021^2): 4128 terms of (p-1)^2 fill a 32-bit word; 4129 go through
    # dot's chunked path
    f = F.ext_field(1021, 2)
    assert f._mask // 1020 ** 2 == 4128
    assert bool(_run_long_row(f, length, length)) == (length == 4128)


def test_a_prime_too_wide_for_packed_lanes_reduces_by_mod_p():
    p = (1 << 31) - 1
    f = F.prime_field(p)
    rng = random.Random(31)
    steps, n_slots = [], 5
    for length in (1, 3, 70, 2, 4):
        src = tuple(rng.randrange(n_slots) for _ in range(length))
        steps.append((tuple(rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in src), src))
        n_slots += 1
    out = list(range(n_slots))[::-1]
    run = O.compile_values(f, 5, steps, out)
    assert run.__qualname__.startswith("ExtField.compile_plan")  # not the packed kernel
    vals = [p - 1, p - 2, 0, 1, rng.randrange(p)]
    assert run(vals) == _reference(f, 5, steps, out, vals)


@pytest.mark.parametrize("bad", [2.0, "3", None, True + 0.5])
@pytest.mark.parametrize("where", ["row", "src", "out"])
def test_a_non_int_is_refused_before_any_source_is_compiled(bad, where, monkeypatch):
    compiled = []
    monkeypatch.setattr(F, "compile", lambda *a: compiled.append(a), raising=False)
    f = F.ext_field(43, 21)
    row, src, out = [3, 5], [0, 1], [2]
    {"row": row, "src": src, "out": out}[where][0] = bad
    with pytest.raises(TypeError):
        O.compile_values(f, 2, [(tuple(row), tuple(src))], out)
    assert compiled == []


def test_plan_of_no_inputs_and_no_outputs():
    f = F.ext_field(7, 9)
    assert O.compile_values(f, 0, [], [])([]) == ()
    assert O.compile_values(f, 0, [((), ())], [0])([]) == (0,)


# the Gabidulin instances of the benchmark
GABIDULIN = [("mbcr-exact", 6, 3, 4, 2), ("mbcr-exact", 5, 3, 3, 2), ("mbcr-exact", 6, 5, 5, 1),
             ("mscr-dk", 6, 3, 3, 3), ("mscr-dk", 7, 3, 3, 3)]


@pytest.mark.parametrize("name,n,k,d,t", GABIDULIN)
def test_scheme_plans_equal_the_per_step_reference(name, n, k, d, t):
    scheme = make_scheme(SchemeParams(n=n, k=k, d=d, t=t, l1=1, scheme=name))
    f, rng = scheme.field, random.Random(n * k + d * t)
    failed = frozenset(range(2, 2 + t))
    helpers = tuple(i for i in range(1, n + 1) if i not in failed)[:d]
    for plan in (O.describe(scheme, "repair", failed, helpers), O.describe(scheme, "encode"),
                 O.describe(scheme, "reconstruct", tuple(range(n - k + 1, n + 1)))):
        out = [j for _, slots in plan.live + plan.coop + plan.results for j in slots]
        vals = [_element(f, rng) for _ in plan.inputs]
        assert O.plan_values(plan, vals) == _reference(f, len(plan.inputs), plan.steps, out, vals)
