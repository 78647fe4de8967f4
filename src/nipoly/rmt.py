"""Random matrix sampling oracles: GUE and LUE ensembles.

Eigenvalues come from LAPACK (``np.linalg.eigvalsh``, a divide-and-conquer
``heevd``/``syevd``) on the matrix itself, singly or over a stack.  Matrix
entries are quantile transforms of the same counter-based uniform field
used everywhere else, so samples are a pure function of the seed.

The GUE is sampled densely: ``gue_matrix`` draws its real and imaginary
parts as two seed lanes of one ``omega_grid`` call under the ``gauss``
law, and ``minors_process`` needs that full matrix.  The LUE is sampled
through the beta = 2 Laguerre tridiagonal model of Dumitriu and Edelman
(arXiv:math-ph/0206043): ``L = B B^T`` with B lower bidiagonal, its squared
diagonal Gamma(n - i, 1) for i = 0..m-1 and its squared sub-diagonal
Gamma(m - 1 - i, 1) for i = 0..m-2.  The eigenvalues of L are equal in law
to those of the complex Wishart matrix X X* (X m x n, standard complex
Gaussian entries), and E tr L = m n as for X X*.  ``lue_matrix_batch``
draws the m n exponentials that sum to those gammas as one seed lane per
sample of one ``omega_grid`` call under the ``exp1`` law; ``lue_matrix``
is one lane of it.

``jacobi_eigvalsh_batch`` (cyclic Jacobi over a stack of real symmetric
matrices) runs on no sampling path; ``jacobi_eigvalsh`` is one lane of it.
The scalar form stays as the independent oracle of the LAPACK route on the
real doubling of a Hermitian matrix, and the benchmark's tracer binds both
by name.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import WeightSpec, derive_seeds, omega_grid
from .errors import DomainError, JacobiConvergenceError

_RE_LANE = 0x61
_IM_LANE = 0x62
_GAMMA_LANE = 0x63
_GAUSS = WeightSpec("gauss")
_EXP1 = WeightSpec("exp1")


def _off_norm_batch(a: np.ndarray) -> np.ndarray:
    # computed from a zeroed-diagonal copy; the difference-of-sums form
    # cancels catastrophically once the iteration is nearly converged
    m = a.copy()
    n = a.shape[-1]
    m[..., np.arange(n), np.arange(n)] = 0.0
    return np.sqrt((m * m).sum(axis=(-2, -1)))


def jacobi_eigvalsh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 30) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations,
    sorted decreasing: one lane of jacobi_eigvalsh_batch.  Converged when
    the off-diagonal Frobenius norm falls below tol times the matrix norm."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("jacobi_eigvalsh needs a square matrix")
    return jacobi_eigvalsh_batch(a[None], tol, max_sweeps)[0]


def jacobi_eigvalsh_batch(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 30) -> np.ndarray:
    """Cyclic Jacobi over a (B, n, n) stack of real symmetric matrices."""
    a = np.array(a, dtype=float)
    b, n = a.shape[0], a.shape[1]
    if a.shape != (b, n, n):
        raise DomainError("expected a stack of square matrices")
    scale = np.sqrt((a * a).sum(axis=(1, 2)))
    thresh = tol * np.maximum(scale, 1e-300)
    rows = np.arange(b)
    # the convergence check runs before each sweep and once after the last
    for sweep in range(max_sweeps + 1):
        off = _off_norm_batch(a)
        if np.all(off <= thresh):
            d = np.diagonal(a, axis1=1, axis2=2)
            return np.sort(d, axis=1)[:, ::-1].copy()
        if sweep == max_sweeps:
            worst = int(np.argmax(off / thresh))
            raise JacobiConvergenceError(
                "Jacobi did not converge in %d sweeps (off-norm %.3e, threshold %.3e)"
                % (max_sweeps, off[worst], thresh[worst])
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                # copies, not views: the row/column updates below would
                # otherwise clobber these before the diagonal fix-ups
                apq = a[:, p, q].copy()
                app = a[:, p, p].copy()
                aqq = a[:, q, q].copy()
                nonzero = np.abs(apq) > 1e-300
                theta = np.where(nonzero, 0.5 * (aqq - app) / np.where(nonzero, apq, 1.0), 0.0)
                t = np.where(
                    nonzero,
                    np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0)),
                    0.0,
                )
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[:, p, :].copy()
                rq = a[:, q, :].copy()
                a[:, p, :] = c[:, None] * rp - s[:, None] * rq
                a[:, q, :] = s[:, None] * rp + c[:, None] * rq
                a[:, :, p] = a[:, p, :]
                a[:, :, q] = a[:, q, :]
                a[rows, p, p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[rows, q, q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[rows, p, q] = 0.0
                a[rows, q, p] = 0.0


def hermitian_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (decreasing) of a complex Hermitian or real symmetric
    matrix, or of each matrix in a (..., n, n) stack."""
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


# ---------------------------------------------------------------------------
# Ensemble sampling
# ---------------------------------------------------------------------------


def gue_matrix(n: int, seed: int) -> np.ndarray:
    """Hermitian matrix with density exp(-Tr H^2 / 2): N(0,1) diagonal and
    complex off-diagonal entries of unit mean square modulus; n >= 1."""
    if n < 1:
        raise DomainError("a GUE matrix needs n >= 1, got %r" % (n,))
    lanes = derive_seeds(seed, np.array([_RE_LANE, _IM_LANE]))
    g_re, g_im = omega_grid(lanes, _GAUSS, np.arange(n)[:, None], np.arange(n))
    h = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    h[iu] = (g_re[iu] + 1j * g_im[iu]) / math.sqrt(2.0)
    h = h + h.conj().T
    h[np.diag_indices(n)] = np.diagonal(g_re)
    return h


def gue_sample(n: int, seed: int) -> np.ndarray:
    """Eigenvalues of one GUE matrix, sorted decreasing."""
    return hermitian_eigvalsh(gue_matrix(n, seed))


def lue_matrix(n: int, m: int, seed: int) -> np.ndarray:
    """m x m real symmetric tridiagonal Laguerre matrix with parameter n
    (m <= n), whose eigenvalues are equal in law to those of the complex
    Wishart matrix X X*, X m x n with standard complex Gaussian entries
    (Dumitriu-Edelman, beta = 2).  One lane of lue_matrix_batch."""
    return lue_matrix_batch(n, m, [seed])[0]


def lue_sample(n: int, m: int, seed: int) -> np.ndarray:
    """Eigenvalues of one LUE(m, parameter n) matrix, sorted decreasing:
    LAPACK on the real tridiagonal lue_matrix, equal in law to the
    eigenvalues of X X*."""
    return hermitian_eigvalsh(lue_matrix(n, m, seed))


def lue_matrix_batch(n: int, m: int, seeds: np.ndarray) -> np.ndarray:
    """lue_matrix for each seed, stacked along a leading axis.

    L = B B^T for B lower bidiagonal with B_ii^2 = d_i ~ Gamma(n - i, 1),
    i = 0..m-1, and B_(i+1)i^2 = o_i ~ Gamma(m - 1 - i, 1), i = 0..m-2, all
    independent: L has diagonal d_i + o_(i-1) and off-diagonal
    sqrt(o_i d_i), and E tr L = m n (Dumitriu and Edelman,
    arXiv:math-ph/0206043).  Each gamma is a sum of exponentials, m n of
    them per sample, from one seed lane per sample."""
    if not 1 <= m <= n:
        raise DomainError("LUE sampling requires 1 <= m <= n, got m = %r, n = %r" % (m, n))
    lanes = derive_seeds(seeds, _GAMMA_LANE)
    e = omega_grid(lanes, _EXP1, np.arange(m)[:, None], np.arange(n)).reshape(len(lanes), m * n)
    # the gamma shapes, diagonal then sub-diagonal, sum to m n
    shapes = np.concatenate([np.arange(n, n - m, -1), np.arange(m - 1, 0, -1)])
    g = np.add.reduceat(e, np.cumsum(shapes) - shapes, axis=1)
    d, o = g[:, :m], g[:, m:]
    i = np.arange(m)
    lmat = np.zeros((len(lanes), m, m))
    lmat[:, i, i] = d
    lmat[:, i[1:], i[1:]] += o
    off = np.sqrt(o * d[:, :-1])
    lmat[:, i[1:], i[:-1]] = off
    lmat[:, i[:-1], i[1:]] = off
    return lmat


def lue_sample_batch(n: int, m: int, seeds: np.ndarray) -> np.ndarray:
    """Eigenvalues (decreasing) for a batch of LUE samples, one per seed."""
    return hermitian_eigvalsh(lue_matrix_batch(n, m, seeds))


def minors_process(h: np.ndarray) -> dict[tuple[int, int], float]:
    """Triangular eigenvalue process of the principal minors: entry (i, j)
    with i <= j is the i-th largest eigenvalue of the minor of size
    N - j + i.  Satisfies the Gelfand-Tsetlin interlacing along north and
    east steps by Cauchy's theorem.  h must be a square matrix."""
    if np.ndim(h) != 2 or h.shape[0] != h.shape[1]:
        raise DomainError("minors_process needs a square matrix, got shape %s" % (np.shape(h),))
    n = h.shape[0]
    eigs = {k: hermitian_eigvalsh(h[:k, :k]) for k in range(1, n + 1)}
    out = {}
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            out[(i, j)] = float(eigs[n - j + i][i - 1])
    return out
