from fractions import Fraction

import pytest

from coopdss import bounds as B

import cutset_oracles as C
from reference_tables import TABLE_I, TABLE_II, TABLE_II_GREEN


# ---------------------------------------------------------
# trade-off points
# ---------------------------------------------------------

def test_mbcr_point_normalized_values():
    pt = B.mbcr_point(3, 3, 2)
    assert (pt.alpha, pt.beta, pt.beta_prime, pt.gamma, pt.file_size) == (7, 2, 1, 7, 15)
    pt = B.mbcr_point(2, 2, 2)
    assert (pt.alpha, pt.file_size) == (5, 8)


def test_mbcr_point_t1_is_classical_mbr():
    for k in range(1, 5):
        for d in range(k, 7):
            pt = B.mbcr_point(k, d, 1)
            assert pt.beta == 2 and pt.alpha == 2 * d and pt.file_size == k * (2 * d - k + 1)


def test_mbcr_point_gamma_identity():
    for k, d, t in [(2, 3, 2), (3, 5, 4), (1, 1, 1)]:
        pt = B.mbcr_point(k, d, t)
        assert pt.gamma == d * pt.beta + (t - 1) * pt.beta_prime
        assert pt.gamma == pt.alpha


def test_mbcr_point_rational_form():
    pt = C.mbcr_point(3, 3, 2, file_size=15)
    assert pt.alpha == Fraction(15, 3) * Fraction(7, 5) == 7
    assert not pt.normalized


def test_mscr_point_values():
    pt = B.mscr_point(2, 2, 2)
    assert (pt.alpha, pt.beta, pt.beta_prime, pt.file_size) == (2, 1, 1, 4)
    pt = B.mscr_point(3, 3, 2)
    assert (pt.alpha, pt.file_size) == (2, 6)
    pt = B.mscr_point(3, 3, 1)
    assert (pt.alpha, pt.file_size) == (1, 3)


# ---------------------------------------------------------
# cut-set bound (cooperative vs classical, tightness)
# ---------------------------------------------------------

def test_cutset_t1_matches_classical_sum():
    for k in range(1, 7):
        for d in range(k, 9):
            pt = B.mbcr_point(k, d, 1)
            got = C.coop_cutset_bound(k, d, 1, pt, [1] * k)
            want = sum(min(pt.alpha, (d - i) * pt.beta) for i in range(k))
            assert got == want


def test_cutset_mbcr_tight_at_all_ones():
    for k in range(1, 6):
        for d in range(k, 7):
            for t in range(1, 4):
                pt = B.mbcr_point(k, d, t)
                assert C.coop_cutset_bound(k, d, t, pt, [1] * k) == pt.file_size
                values = [C.coop_cutset_bound(k, d, t, pt, u)
                          for u in C.compositions(k, t)]
                assert min(values) == pt.file_size


def test_cutset_mscr_saturates_alpha():
    for k in range(1, 6):
        for d in range(k, 7):
            for t in range(1, 4):
                pt = B.mscr_point(k, d, t)
                assert C.coop_cutset_bound(k, d, t, pt, [1] * k) == k * pt.alpha == pt.file_size


def test_cutset_rejects_bad_u():
    pt = B.mbcr_point(2, 2, 2)
    with pytest.raises(ValueError):
        C.coop_cutset_bound(2, 2, 2, pt, [3])
    with pytest.raises(ValueError):
        C.coop_cutset_bound(2, 2, 2, pt, [1])


def test_cutset_value_full_config_matches_case1():
    # one node per group, all cuts of the second type, eavesdroppers first:
    # the configuration behind the case-1 bound
    k, d, t, l1 = 3, 3, 2, 1
    pt = B.mbcr_point(k, d, t)
    cfg = C.CutConfig(u=(1, 1, 1), m=(0, 0, 0),
                      l1_first=(0, 0, 0), l1_second=(1, 0, 0))
    value = C.cutset_value(k, d, t, l1, pt, cfg)
    case1, _, _ = C.eavesdropper_case_bounds(k, d, t, l1)
    assert value == case1


def test_cutset_value_validates_config():
    pt = B.mbcr_point(2, 2, 2)
    with pytest.raises(ValueError):
        C.cutset_value(2, 2, 2, 1, pt, C.CutConfig((2,), (0,), (1,), (0,)))


# ---------------------------------------------------------
# secure-size bounds
# ---------------------------------------------------------

def test_mbcr_secure_bound_table_values():
    assert B.mbcr_secure_bound(3, 3, 2, 1) == 8
    assert B.mbcr_secure_bound(2, 2, 2, 0) == 8
    assert B.mbcr_secure_bound(2, 2, 2, 2) == 0


def test_case_bounds_examples():
    case1, case2, case3 = C.eavesdropper_case_bounds(3, 3, 2, 1)
    assert case1 == 8 and case2 is None and case3 == 9
    case1, case2, case3 = C.eavesdropper_case_bounds(2, 2, 2, 1)
    assert case1 == 3 and case2 == 4 and case3 is None
    case1, case2, case3 = C.eavesdropper_case_bounds(3, 3, 2, 0)
    assert case1 == B.mbcr_point(3, 3, 2).file_size == 15


def test_s_max_examples():
    assert C.s_max(3, 3, 2, 1) == 6
    assert C.s_max(3, 3, 2, 0) == 0
    # closed-form identity: S = l1(2d - l1 + t) - bt(t - bt) for l1 <= k - b
    for k, d, t in [(4, 5, 2), (5, 6, 3), (6, 7, 2)]:
        a = k // t
        b = k - a * t
        for l1 in range(0, min(k, a * t) + 1):
            bt = l1 % t
            assert C.s_max(k, d, t, l1) == l1 * (2 * d - l1 + t) - bt * (t - bt)


def test_mscr_secure_bound():
    assert B.mscr_secure_bound(2, 2, 2, 1, 0) == 2
    assert B.mscr_secure_bound(2, 2, 2, 0, 1) == 1
    assert B.mscr_secure_bound(2, 2, 2, 0, 0) == 4


def test_mscr_dk_achievable():
    assert B.mscr_dk_achievable(3, 2, 1, 0) == 4
    assert B.mscr_dk_achievable(3, 2, 0, 2) == 0
    assert B.mscr_dk_achievable(2, 2, 0, 1) == 1 == B.mscr_secure_bound(2, 2, 2, 0, 1)


def test_nrbw_values():
    assert C.nrbw(2, 2, 2, 1) == Fraction(5, 3)
    assert C.nrbw(3, 3, 2, 1) == Fraction(7, 8)
    assert C.nrbw(2, 2, 3, 0) == Fraction(6, 10)
    with pytest.raises(ZeroDivisionError):
        C.nrbw(2, 2, 2, 2)


# ---------------------------------------------------------
# rendering
# ---------------------------------------------------------

def test_render4_round_half_up():
    assert B.render4(Fraction(1, 6)) == "0.1667"
    assert B.render4(Fraction(1, 2) / 1000 * 5) == "0.0025"
    assert B.render4(Fraction(1, 20000)) == "0.0001"  # tie rounds up
    assert B.render4(Fraction(3)) == "3.0000"


# ---------------------------------------------------------
# the NRBW tables
# ---------------------------------------------------------

def test_table_i_exact_row_set():
    rows = {r.rendered() for r in B.nrbw_table(5, "d+t=n")}
    assert rows == set(TABLE_I)


def test_table_ii_exact_row_set():
    rows = {r.rendered() for r in B.nrbw_table(5, "d+t<=n")}
    assert rows == set(TABLE_II)


def test_table_max_n4_subset():
    rows = {r.rendered() for r in B.nrbw_table(4, "d+t=n")}
    assert rows == {r for r in TABLE_I if r[0] == 4}
    assert len(rows) == 7


def test_table_csv_shape():
    csv = B.table_csv(B.nrbw_table(4, "d+t=n"))
    lines = csv.strip().splitlines()
    assert lines[0] == B.CSV_HEADER
    assert len(lines) == 8
    assert lines[1].startswith("4,2,0,")


def test_nrbw_monotonicity_table_i():
    # with d + t = n fixed, cooperation never lowers NRBW
    by_key = {}
    for (n, k, l, t, d, *_rest) in TABLE_I:
        by_key.setdefault((n, k, l), {})[t] = C.nrbw(k, d, t, l)
    for key, vals in by_key.items():
        base = vals.get(1)
        if base is None:
            continue
        for t, v in vals.items():
            if t > 1:
                assert v >= base, (key, t)


def test_nrbw_monotonicity_table_ii_green():
    # with d fixed below n - 1, cooperation lowers NRBW vs the t=1 system
    for (n, k, l, t, d) in TABLE_II_GREEN:
        assert C.nrbw(k, d, t, l) <= C.nrbw(k, d, 1, l), (n, k, l, t, d)


# ---------------------------------------------------------
# case-bound dominance
# ---------------------------------------------------------

def test_case_bound_dominance_report():
    report = C.case_bound_dominance(max_k=6, max_d=8, max_t=6)
    assert report.ok
    assert report.checked > 500


def test_case2_slack_identity():
    for k in range(1, 7):
        for t in range(k, 7):
            for d in range(k, 9):
                for l1 in range(k):
                    case1, case2, _ = C.eavesdropper_case_bounds(k, d, t, l1)
                    assert case2 - case1 == (k - l1) * l1
