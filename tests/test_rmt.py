import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from nipoly.environment import UniformField, derive_seed
from nipoly.errors import DomainError, JacobiConvergenceError
from nipoly.rmt import (
    _IM_LANE,
    _RE_LANE,
    gue_matrix,
    gue_sample,
    hermitian_eigvalsh,
    jacobi_eigvalsh,
    jacobi_eigvalsh_batch,
    lue_matrix,
    lue_matrix_batch,
    lue_sample,
    lue_sample_batch,
    minors_process,
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
    with pytest.raises(JacobiConvergenceError, match=r"off-norm \S+, threshold \S+"):
        jacobi_eigvalsh(a, max_sweeps=1)
    # the batch names its worst lane: the converged diagonal lane is not it
    stack = np.stack([np.diag(np.arange(30.0)), a])
    thresh = 1e-12 * math.sqrt((a * a).sum())
    with pytest.raises(JacobiConvergenceError, match="threshold %.3e" % thresh):
        jacobi_eigvalsh_batch(stack, max_sweeps=1)


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


def test_minors_interlacing():
    h = gue_matrix(8, seed=11)
    grid = minors_process(h)
    # decreasing along east (i, j) -> (i+1, j) and north (i, j) -> (i, j+1)
    for (i, j), v in grid.items():
        if (i + 1, j) in grid and i + 1 <= j:
            assert grid[(i + 1, j)] <= v + 1e-10
        if (i, j + 1) in grid:
            assert grid[(i, j + 1)] <= v + 1e-10


@pytest.mark.parametrize("seed", [1, -5, 2**63 + 5, 2**64 + 3])
def test_gue_matrix_equals_the_uniform_field_draw(seed):
    # the route before gue_matrix drew through uniform_many: one
    # UniformField per lane, its seed from the scalar derive_seed
    n = 9
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    g_re, g_im = (
        sps.ndtri(UniformField(derive_seed(seed, lane)).uniform(rows, cols))
        for lane in (_RE_LANE, _IM_LANE)
    )
    want = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    want[iu] = (g_re[iu] + 1j * g_im[iu]) / math.sqrt(2.0)
    want = want + want.conj().T
    want[np.diag_indices(n)] = np.diagonal(g_re)
    got = gue_matrix(n, seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_lue_batch_refuses_m_above_n():
    # an m x m Wishart matrix of an m x n factor with m > n is singular
    seeds = np.arange(4)
    with pytest.raises(DomainError):
        lue_sample_batch(3, 5, seeds)
    with pytest.raises(DomainError):
        lue_matrix_batch(3, 5, seeds)
    with pytest.raises(DomainError):
        lue_sample(3, 5, 1)
    assert lue_sample_batch(5, 5, seeds).shape == (4, 5)
