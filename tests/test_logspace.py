import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nipoly.errors import PrecisionLossWarning
from nipoly.logspace import LogSigned, logdet, logsum


finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@given(finite_floats)
def test_roundtrip(x):
    # relative error of exp(log x) grows with |log x|; 1e-12 covers the range
    assert LogSigned.from_float(x).to_float() == pytest.approx(x, rel=1e-12, abs=1e-300)


def test_zero_is_exact():
    z = LogSigned.from_float(0.0)
    assert z.sign == 0
    assert z.to_float() == 0.0
    x = LogSigned.from_float(3.0)
    assert logsum(x, z) == x
    assert logsum(z, x) == x


@given(finite_floats, finite_floats)
def test_mul_matches_floats(a, b):
    got = (LogSigned.from_float(a) * LogSigned.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12, abs=1e-280)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_same_value_addition_doubles(x):
    a = LogSigned.from_float(x)
    assert logsum(a, a).to_float() == pytest.approx(2.0 * x, rel=1e-14)


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_logsum_matches_floats(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        got = logsum(LogSigned.from_float(a), LogSigned.from_float(b)).to_float()
    # additions of opposite signs can legitimately cancel; compare absolutely
    scale = max(abs(a), abs(b), 1.0)
    assert got == pytest.approx(a + b, abs=1e-11 * scale)


def test_exact_cancellation():
    a = LogSigned.from_float(7.25)
    assert logsum(a, -a).sign == 0


def test_cancellation_warning():
    a = LogSigned.from_float(1.0)
    b = LogSigned.from_float(-(1.0 - 1e-15))
    with pytest.warns(PrecisionLossWarning):
        logsum(a, b)


def _exact_det(rows):
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    sign = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return sign * det


def test_logdet_examples():
    assert logdet([]).to_float() == 1.0
    assert logdet([[LogSigned.from_float(7.0)]]).to_float() == pytest.approx(7.0)
    m = [[10.0, 1.0], [5.0, 10.0]]
    d = logdet([[LogSigned.from_float(v) for v in row] for row in m])
    assert d.sign == 1
    assert d.logmag == pytest.approx(math.log(95.0), abs=1e-12)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=200, deadline=None)
# elimination leaves two entries an ulp apart in log space to subtract
@example(rows=[[0, 0, 0, 0], [1, 1, -1, 0], [1, -1, 1, 0], [4, 1, -1, 0]])
def test_logdet_matches_exact_rational(rows):
    exact = _exact_det(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionLossWarning)
        d = logdet([[LogSigned.from_float(float(v)) for v in row] for row in rows])
    if exact == 0:
        # log-space elimination may leave a tiny residual instead of a hard zero
        assert d.sign == 0 or d.logmag < math.log(1e-6)
    else:
        assert d.sign == (1 if exact > 0 else -1)
        assert d.logmag == pytest.approx(math.log(abs(float(exact))), abs=1e-9)
