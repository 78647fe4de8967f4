import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
import scipy.stats

from nipoly.environment import UniformField, WeightSpec, derive_seed, derive_seeds, omega_grid
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


def test_jacobi_checks_convergence_after_its_last_sweep():
    # one rotation diagonalizes a 2 x 2 matrix: max_sweeps = 1 converges,
    # and max_sweeps = 0 accepts only a matrix that is already diagonal
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(jacobi_eigvalsh(a, max_sweeps=1), [3.0, 1.0], rtol=1e-15)
    with pytest.raises(JacobiConvergenceError):
        jacobi_eigvalsh(a, max_sweeps=0)
    assert list(jacobi_eigvalsh(np.diag([1.0, 4.0]), max_sweeps=0)) == [4.0, 1.0]


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


def _wishart_batch(n, m, seeds):
    """The dense complex Wishart matrices X X*, X m x n with standard complex
    Gaussian entries (E|x|^2 = 1): the law oracle of the tridiagonal LUE."""
    lanes = derive_seeds(seeds, np.array([[_RE_LANE], [_IM_LANE]])).reshape(-1)
    g = omega_grid(lanes, WeightSpec("gauss"), np.arange(m)[:, None], np.arange(n))
    g_re, g_im = g.reshape(2, -1, m, n)
    x = (g_re + 1j * g_im) / math.sqrt(2.0)
    return x @ np.conj(np.swapaxes(x, 1, 2))


def _within_4se(samples, want):
    # samples along axis 0; one standard error per column
    samples = np.asarray(samples, dtype=float)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return np.all(np.abs(samples.mean(axis=0) - want) <= 4.0 * se)


_LAW_SHAPES = [(12, 12), (8, 4), (7, 5), (6, 1), (1, 1)]


@pytest.mark.parametrize("sampler", [lue_matrix_batch, _wishart_batch], ids=["tridiagonal", "wishart"])
@pytest.mark.parametrize("n, m", _LAW_SHAPES)
def test_lue_trace_moments(sampler, n, m):
    # E tr L = m n and E tr L^2 = m n (m + n), for the model and its oracle
    mats = sampler(n, m, np.arange(4000))
    assert _within_4se(np.trace(mats, axis1=1, axis2=2).real, m * n)
    assert _within_4se(np.einsum("bij,bji->b", mats, mats).real, m * n * (m + n))


@pytest.mark.parametrize("n, m", _LAW_SHAPES)
def test_lue_diagonal_means(n, m):
    # L_00 = d_0 ~ Gamma(n); L_ii = d_i + o_(i-1) has mean (n - i) + (m - i)
    diag = np.diagonal(lue_matrix_batch(n, m, np.arange(4000)), axis1=1, axis2=2)
    i = np.arange(m)
    assert _within_4se(diag, np.where(i == 0, n, (n - i) + (m - i)))


@pytest.mark.parametrize("n, m", [(12, 12), (8, 4), (7, 5)])
def test_lue_edge_eigenvalues_match_the_wishart_oracle(n, m):
    # two-sample KS of the largest and smallest eigenvalue, fixed seeds
    got = lue_sample_batch(n, m, np.arange(3000))
    want = hermitian_eigvalsh(_wishart_batch(n, m, np.arange(3000, 6000)))
    for k in (0, -1):
        assert scipy.stats.ks_2samp(got[:, k], want[:, k]).pvalue > 1e-3, k


@pytest.mark.parametrize("n", [1, 6])
def test_lue_single_row_is_a_gamma(n):
    # m = 1: L is the 1 x 1 matrix [|x|^2], |x|^2 ~ Gamma(n, 1); n = 1 is Exp(1)
    mats = lue_matrix_batch(n, 1, np.arange(3000))
    assert mats.shape == (3000, 1, 1)
    eigs = lue_sample_batch(n, 1, np.arange(3000))
    assert np.array_equal(eigs, mats[:, 0])
    assert scipy.stats.kstest(eigs[:, 0], scipy.stats.gamma(n).cdf).pvalue > 1e-3
    oracle = _wishart_batch(n, 1, np.arange(3000, 6000))[:, 0, 0].real
    assert scipy.stats.ks_2samp(eigs[:, 0], oracle).pvalue > 1e-3


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


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: gue_sample(-1, 1), "n >= 1", id="gue_sample_neg"),
        pytest.param(lambda: gue_matrix(0, 1), "n >= 1", id="gue_matrix_0"),
        pytest.param(lambda: lue_sample(3, -1, 1), "1 <= m <= n", id="lue_sample_m_neg"),
        pytest.param(lambda: lue_matrix_batch(3, 0, np.arange(2)), "1 <= m <= n", id="lue_matrix_batch_m0"),
        pytest.param(lambda: lue_sample_batch(3, 5, np.arange(2)), "1 <= m <= n", id="lue_sample_batch_m_above_n"),
        pytest.param(lambda: minors_process(np.eye(3)[0]), "square matrix", id="minors_process_1d"),
        pytest.param(lambda: minors_process(np.zeros((2, 3))), "square matrix", id="minors_process_2x3"),
        pytest.param(lambda: minors_process(np.zeros((2, 2, 2))), "square matrix", id="minors_process_3d"),
    ],
)
def test_rmt_refusals_are_typed(call, match):
    with pytest.raises(DomainError, match=match):
        call()
