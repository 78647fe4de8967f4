import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nipoly.errors import DomainError, EnumerationCapError
from nipoly.lattice import (
    enumerate_kpaths,
    is_nice,
    kpath_is_disjoint,
    krattenthaler_check,
    krattenthaler_log_rhs,
    leading_minors,
    macmahon_log_count,
    paths_between,
    rectangle_endpoints,
    stack_diag,
    stack_down,
    stack_up,
)


def test_is_nice():
    assert is_nice(((0, 0), (-1, 1)))  # strictly N and W
    assert is_nice(((0, 0), (0, 1)))  # vertical neighbour
    assert not is_nice(((0, 0), (1, 1)))  # NE violates both clauses
    assert not is_nice(((0, 0), (0, 2)))  # two up, not adjacent and not NW
    assert is_nice(((5, 0), (4, 2), (4, 3), (2, 5)))


def test_stacks():
    assert stack_up((1, 1), 2) == ((1, 1), (1, 2))
    assert stack_down((2, 2), 1) == ((2, 2),)
    assert stack_down((3, 3), 2) == ((3, 2), (3, 3))
    assert stack_diag((0, 0), 3) == ((0, 0), (-1, 1), (-2, 2))


def test_diag_stack_always_nice():
    for x in [(0, 0), (3, -2), (-5, 7)]:
        for k in range(1, 7):
            assert is_nice(stack_diag(x, k))
            assert is_nice(stack_up(x, k))


def test_paths_between_basic():
    ps = list(paths_between((0, 0), (1, 1)))
    assert len(ps) == 2
    # east-first ordering
    assert ps[0] == ((0, 0), (1, 0), (1, 1))
    assert ps[1] == ((0, 0), (0, 1), (1, 1))
    assert list(paths_between((0, 0), (-1, 0))) == []
    assert list(paths_between((2, 3), (2, 3))) == [((2, 3),)]


def test_enumerate_k1():
    xs, ys = ((0, 0),), ((1, 1),)
    assert len(enumerate_kpaths(xs, ys)) == 2


def test_enumerate_rectangle_examples():
    xs, ys = rectangle_endpoints(2, 2, 1)
    assert len(enumerate_kpaths(xs, ys)) == 2
    xs, ys = rectangle_endpoints(3, 3, 2)
    got = enumerate_kpaths(xs, ys)
    assert len(got) == 3
    for p in got:
        assert kpath_is_disjoint(p)


def test_enumerate_cap():
    xs, ys = rectangle_endpoints(5, 5, 1)
    with pytest.raises(EnumerationCapError):
        enumerate_kpaths(xs, ys, cap=10)


def test_enumeration_deterministic():
    xs, ys = rectangle_endpoints(3, 3, 2)
    assert enumerate_kpaths(xs, ys) == enumerate_kpaths(xs, ys)


def test_macmahon_examples():
    assert macmahon_log_count(2, 2, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert macmahon_log_count(3, 3, 2) == pytest.approx(math.log(3.0), abs=1e-12)
    for n in range(1, 6):
        assert macmahon_log_count(n, n, n) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(DomainError):
        macmahon_log_count(3, 3, 4)


def test_macmahon_monotone_in_k():
    for n, m in [(4, 4), (5, 3)]:
        prev = math.inf
        for k in range(1, min(n, m) + 1):
            cur = macmahon_log_count(n, m, k)
            assert cur <= prev + 1e-12
            prev = cur


def test_every_enumerated_kpath_disjoint():
    xs, ys = rectangle_endpoints(4, 4, 2)
    for p in enumerate_kpaths(xs, ys):
        assert kpath_is_disjoint(p)
        assert len(p) == 2


def test_kpath_sharing_a_site_is_not_disjoint():
    a = ((1, 1), (2, 1), (2, 2))
    b = ((1, 2), (2, 2), (2, 3))
    assert not kpath_is_disjoint((a, b))
    assert not kpath_is_disjoint((a, a))


def test_krattenthaler_hand_case():
    # det [[2,1],[1,2]] = 3 = (2/1)(3/2) * 1
    assert krattenthaler_log_rhs(2, 1, 1) == pytest.approx(math.log(3.0), abs=1e-12)
    assert krattenthaler_check(2, 1, 1)


def test_krattenthaler_k1_collapses_to_binomial():
    for a, b in [(1, 1), (2, 3), (4, 2)]:
        assert krattenthaler_log_rhs(1, a, b) == pytest.approx(
            math.log(math.comb(a + b, a)), abs=1e-11
        )
        assert krattenthaler_check(1, a, b)


@pytest.mark.parametrize("kab", [(3, 2, 2), (2, 3, 4), (4, 3, 2), (5, 2, 2)])
def test_krattenthaler_grid(kab):
    assert krattenthaler_check(*kab)


def test_krattenthaler_exact_integer_oracle():
    # both sides by exact integer arithmetic for (3,2,2)
    from fractions import Fraction

    k, a, b = 3, 2, 2
    mat = [[math.comb(a + b, a + j - i) for j in range(k)] for i in range(k)]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    lhs = det3(mat)
    rhs = Fraction(1)
    for r in range(1, k + 1):
        for s in range(1, a + 1):
            for t in range(1, b + 1):
                rhs *= Fraction(r + s + t - 1, r + s + t - 2)
    assert lhs == rhs
    assert krattenthaler_log_rhs(k, a, b) == pytest.approx(math.log(lhs), abs=1e-11)


def _fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((r for r in range(k, len(a)) if a[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            for c in range(k, len(a)):
                a[r][c] -= f * a[k][c]
    return det


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 10**30]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
@settings(max_examples=100, deadline=None)
def test_leading_minors_match_rational_elimination(rows):
    # zero-rich matrices: pivots vanish, and the elimination swaps rows
    want = [_fraction_det([r[:s] for r in rows[:s]]) for s in range(1, len(rows) + 1)]
    assert leading_minors(rows) == want


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(lambda: stack_up((0, 0), 0), DomainError, "stack size must be >= 1", id="stack_up"),
        pytest.param(lambda: stack_down((0, 0), 0), DomainError, "stack size must be >= 1", id="stack_down"),
        pytest.param(lambda: stack_diag((0, 0), -1), DomainError, "stack size must be >= 1", id="stack_diag"),
        pytest.param(
            lambda: enumerate_kpaths(((0, 0),), ((1, 1), (2, 2))), DomainError, "equal length", id="enumerate_kpaths"
        ),
        pytest.param(lambda: rectangle_endpoints(3, 2, 3), DomainError, "need 1 <= k", id="rectangle_endpoints_big"),
        pytest.param(lambda: rectangle_endpoints(3, 3, 0), DomainError, "need 1 <= k", id="rectangle_endpoints_0"),
        pytest.param(lambda: krattenthaler_check(9, 1, 1), DomainError, "desk-scale", id="krattenthaler_check"),
        pytest.param(lambda: krattenthaler_check(0, 1, 1), DomainError, "desk-scale", id="krattenthaler_check_k0"),
        pytest.param(lambda: krattenthaler_check(2, -1, 1), DomainError, "desk-scale", id="krattenthaler_check_a_neg"),
        pytest.param(lambda: krattenthaler_check(2, 1, -1), DomainError, "desk-scale", id="krattenthaler_check_b_neg"),
        # each of these was the empty product, log 1 = 0.0
        pytest.param(lambda: krattenthaler_log_rhs(-2, 3, 3), DomainError, "k >= 1", id="krattenthaler_log_rhs_k_neg"),
        pytest.param(lambda: krattenthaler_log_rhs(3, -1, 4), DomainError, "k >= 1", id="krattenthaler_log_rhs_a_neg"),
        pytest.param(lambda: krattenthaler_log_rhs(0, 2, 2), DomainError, "k >= 1", id="krattenthaler_log_rhs_k0"),
        pytest.param(lambda: krattenthaler_log_rhs(2, 2, -3), DomainError, "k >= 1", id="krattenthaler_log_rhs_b_neg"),
        # once the (3, 3, 1) count, 1.7918
        pytest.param(lambda: macmahon_log_count(2.5, 3, 1), DomainError, "integral", id="macmahon_log_count_fraction"),
    ],
)
def test_lattice_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
