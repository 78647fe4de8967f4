import math

import mpmath
import numpy as np
import pytest

from nipoly.environment import derive_seed
from nipoly.errors import JacobiConvergenceError
from nipoly.rmt import (
    gue_matrix,
    gue_sample,
    hermitian_eigvalsh,
    jacobi_eigvalsh,
    jacobi_eigvalsh_batch,
    lue_matrix,
    lue_sample,
    lue_sample_batch,
    minors_process,
    _seed_lane,
)


def test_jacobi_against_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 20):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        got = jacobi_eigvalsh(a)
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(got, want, atol=1e-10)


def test_jacobi_batch_against_numpy():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((7, 6, 6))
    a = (m + np.swapaxes(m, 1, 2)) / 2
    got = jacobi_eigvalsh_batch(a)
    for b in range(7):
        want = np.sort(np.linalg.eigvalsh(a[b]))[::-1]
        assert np.allclose(got[b], want, atol=1e-10)


def test_jacobi_nonconvergence_raises():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((30, 30))
    a = (m + m.T) / 2
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigvalsh(a, max_sweeps=1)


def test_hermitian_eigvalsh():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / 2
        got = hermitian_eigvalsh(h)
        want = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.allclose(got, want, atol=1e-9)
    hb = np.stack(
        [
            (lambda y: (y + y.conj().T) / 2)(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )
            for _ in range(5)
        ]
    )
    got = hermitian_eigvalsh(hb)
    for b in range(5):
        want = np.sort(np.linalg.eigvalsh(hb[b]))[::-1]
        assert np.allclose(got[b], want, atol=1e-9)


def _hermitian_cases():
    for n in range(1, 7):
        yield gue_matrix(n, seed=3 + n)
    yield lue_matrix(7, 5, seed=4)
    # identity plus rank one: eigenvalue 1 with multiplicity 5, and 1 + |v|^2
    v = gue_matrix(6, seed=9)[:, 0]
    yield np.eye(6) + np.outer(v, v.conj())


def test_hermitian_eigvalsh_against_mpmath():
    for h in _hermitian_cases():
        with mpmath.workdps(30):
            ref = mpmath.mp.eighe(mpmath.matrix(h.tolist()), eigvals_only=True)
            want = np.sort([float(e) for e in ref])[::-1]
        got = hermitian_eigvalsh(h)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(h)))
        assert np.abs(got - want).max() <= tol


def test_hermitian_eigvalsh_against_jacobi_on_real_doubling():
    # H = A + iB and [[A, -B], [B, A]] share eigenvalues, each doubled there
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / 2
        doubled = np.block([[h.real, -h.imag], [h.imag, h.real]])
        want = jacobi_eigvalsh(doubled)
        assert np.abs(want[::2] - want[1::2]).max() <= 1e-10 * max(1.0, np.linalg.norm(h))
        got = hermitian_eigvalsh(h)
        assert np.abs(got - want[::2]).max() <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_gue_trace_preservation():
    h = gue_matrix(40, seed=5)
    eigs = gue_sample(40, seed=5)
    assert np.sum(eigs) == pytest.approx(float(np.trace(h).real), abs=1e-9)
    assert list(eigs) == sorted(eigs, reverse=True)


def test_gue_determinism_and_moments():
    assert np.allclose(gue_sample(10, seed=1), gue_sample(10, seed=1))
    # E Tr H^2 = n^2 under this normalization
    vals = []
    for s in range(30):
        h = gue_matrix(12, seed=100 + s)
        vals.append(float(np.trace(h @ h).real))
    assert np.mean(vals) == pytest.approx(144.0, rel=0.15)


def test_lue_positive_and_trace():
    h = lue_matrix(8, 5, seed=7)
    eigs = lue_sample(8, 5, seed=7)
    assert eigs[-1] > 0  # positive definite a.s.
    assert np.sum(eigs) == pytest.approx(float(np.trace(h).real), abs=1e-9)
    # E Tr XX* = m n
    traces = [float(np.trace(lue_matrix(8, 5, seed=200 + s)).real) for s in range(40)]
    assert np.mean(traces) == pytest.approx(40.0, rel=0.15)


def test_lue_batch_matches_scalar():
    seeds = np.arange(50, 54)
    batch = lue_sample_batch(6, 3, seeds)
    for i, s in enumerate(seeds):
        np.testing.assert_array_equal(batch[i], lue_sample(6, 3, int(s)))


@pytest.mark.parametrize(
    "seeds",
    [
        np.array([2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 0], dtype=np.uint64),
        np.array([-5, -1, 0, 7, -(2**63)], dtype=np.int64),
        [-5, 2**63 + 1, 3],
    ],
)
def test_seed_lane_equals_the_scalar_loop(seeds):
    for lane in (0x61, 0x62):
        want = np.array([derive_seed(int(s), lane) for s in seeds], dtype=np.uint64)
        got = _seed_lane(seeds, lane)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)


def test_minors_interlacing():
    h = gue_matrix(8, seed=11)
    grid = minors_process(h)
    # decreasing along east (i, j) -> (i+1, j) and north (i, j) -> (i, j+1)
    for (i, j), v in grid.items():
        if (i + 1, j) in grid and i + 1 <= j:
            assert grid[(i + 1, j)] <= v + 1e-10
        if (i, j + 1) in grid:
            assert grid[(i, j + 1)] <= v + 1e-10
