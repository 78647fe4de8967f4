import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from nipoly import interface, polymer
from nipoly.environment import UniformField, WeightSpec, _lane_blocks, derive_seed, omega_grid
from nipoly.errors import DomainError
from nipoly.interface import (
    InterfaceGrid,
    build_phi,
    energy_F,
    gibbs_sampler,
    grad_F,
    gt_volume,
    interface_log_density,
    is_gt_pattern,
    large_mu_convergence,
    phi_inversion_residual,
    phi_moments_mc,
    small_mu_coupling,
    theta_min,
    theta_min_log_count_form,
    theta_rescale,
    whittaker_gl2_bessel,
    whittaker_measure_logdensity,
)
from nipoly.polymer import (
    TauTable,
    last_passage,
    loggamma_rectangle,
    single_path_logZ,
)
from nipoly.rmt import gue_matrix, minors_process
from nipoly.rsk import grsk
from nipoly.special import bessel_k0, digamma, log_gamma


def test_build_phi_n1():
    f = UniformField(4)
    mu = 1.7
    g = build_phi(f, mu, 1)
    zeta_log = float(omega_grid(f, WeightSpec("loggamma", mu=mu), 1, 1))
    assert g.at(1, 1) == pytest.approx(zeta_log, rel=1e-10)


def test_phi_small_grid_explicit():
    # N=2 entries written out from the tau definitions
    f = UniformField(6)
    mu = 2.0
    lz = omega_grid(
        f, WeightSpec("loggamma", mu=mu), np.arange(1, 3)[:, None], np.arange(1, 3)[None, :]
    )
    z = np.exp(lz)  # z[x1-1, x2-1]
    g = build_phi(f, mu, 2)
    tau21 = z[0, 0] * z[1, 0] * z[1, 1] + z[0, 0] * z[0, 1] * z[1, 1]
    tau11 = z[0, 0] * z[1, 0]
    tau22 = z[0, 0] * z[0, 1] * z[1, 0] * z[1, 1]
    tt11 = z[0, 0] * z[0, 1]
    assert g.at(1, 1) == pytest.approx(math.log(tau21), rel=1e-9)
    assert g.at(1, 2) == pytest.approx(math.log(tau11), rel=1e-9)
    assert g.at(2, 2) == pytest.approx(math.log(tau22 / tau21), rel=1e-9)
    assert g.at(2, 1) == pytest.approx(math.log(tt11), rel=1e-9)


def test_phi_exact_identities_at_n64():
    # two identities that need no determinant: the diagonal sums to
    # log tau(N, N), the product of all weights, and phi(1, 1) is the
    # single-path partition function across the square
    n, mu = 64, 2.0
    for s in range(2):
        f = UniformField(derive_seed(17, s))
        g = build_phi(f, mu, n)
        total = float(loggamma_rectangle(f, mu, n, n).sum())
        assert g.diagonal().sum() == pytest.approx(total, rel=1e-12)
        corner = single_path_logZ(
            f, WeightSpec("loggamma", mu=mu), 1.0, (1, 1), (n, n), include_start=True
        )
        assert g.at(1, 1) == pytest.approx(corner, rel=1e-12)


def test_interface_density_n1_normalization_and_mean():
    mu = 1.5

    def density(lam):
        return math.exp(
            interface_log_density(InterfaceGrid(1, np.array([[lam]])), mu)
        )

    total, _ = scipy.integrate.quad(density, -40, 30, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)
    mean, _ = scipy.integrate.quad(lambda l: l * density(l), -40, 30, limit=200)
    assert mean == pytest.approx(-digamma(mu), abs=1e-8)


def test_interface_density_translation():
    # adding h to all values changes log density by -mu N h plus the corner
    f = UniformField(10)
    mu, n, h = 2.0, 3, 0.35
    g = build_phi(f, mu, n)
    shifted = InterfaceGrid(n, g.values + h)
    delta = interface_log_density(shifted, mu) - interface_log_density(g, mu)
    corner = g.at(n, n)
    expect = -mu * n * h - (math.exp(-(corner + h)) - math.exp(-corner))
    assert delta == pytest.approx(expect, rel=1e-10)


def _stacked_draws(n, mu, sweeps, seed):
    return np.stack([g.values for g in gibbs_sampler(n, mu, sweeps, seed)])


@pytest.mark.parametrize("n", [5, 16])
def test_gibbs_sampler_yields_the_build_phi_lanes_bitwise(n):
    # sweeps of 0, 1, one block and one block + 1
    mu, seed = 1.5, 31
    # the lanes of a full block, as gibbs_sampler cuts them
    block = next(_lane_blocks(2**40, n * n, interface._DRAW_SITES)).stop
    for sweeps in (0, 1, block, block + 1):
        draws = list(gibbs_sampler(n, mu, sweeps, seed, burn_in=7))
        assert len(draws) == sweeps
    for s in (0, 1, block - 1, block):
        want = build_phi(UniformField(derive_seed(seed, 0x1F, s)), mu, n).values
        assert draws[s].values.tobytes() == want.tobytes()


def test_gibbs_sampler_draws_do_not_depend_on_the_block(monkeypatch):
    n, mu, sweeps, seed = 3, 2.5, 11, 4
    want = _stacked_draws(n, mu, sweeps, seed)
    monkeypatch.setattr(interface, "_DRAW_SITES", 1)
    assert _stacked_draws(n, mu, sweeps, seed).tobytes() == want.tobytes()


def test_gibbs_sampler_mean_is_phi_moments_mc_mean():
    n, mu, sweeps, seed = 4, 1.5, 300, 8
    draws = _stacked_draws(n, mu, sweeps, seed)
    pm = phi_moments_mc(n, mu, sweeps, seed)
    assert pm["seeds"] == sweeps
    assert np.array_equal(draws.mean(axis=0), pm["mean"])
    assert np.array_equal(draws.std(axis=0, ddof=1) / math.sqrt(sweeps), pm["stderr"])


def test_phi_moments_mc_needs_two_seeds():
    for seeds in (0, 1):
        with pytest.raises(DomainError):
            phi_moments_mc(3, 1.5, seeds, 8)
    assert np.isfinite(phi_moments_mc(3, 1.5, 2, 8)["stderr"]).all()


def test_phi_of_an_empty_square_raises():
    with pytest.raises(DomainError):
        build_phi(UniformField(1), 1.0, 0)
    with pytest.raises(DomainError):
        next(gibbs_sampler(0, 1.0, 3, 1))
    # nor over an empty mu_list, which once gave decreasing: True over no mu
    with pytest.raises(DomainError):
        large_mu_convergence(3, [], 2, 1)
    with pytest.raises(DomainError):
        small_mu_coupling(3, 2, 1, [], 2, 1)


def test_interface_grid_refuses_non_finite_values_and_wrong_shapes():
    for bad in (np.nan, np.inf, -np.inf):
        v = np.zeros((3, 3))
        v[1, 2] = bad
        with pytest.raises(DomainError):
            InterfaceGrid(3, v)
    for shape in [(3, 2), (2, 3), (9,), (1, 3, 3)]:
        with pytest.raises(DomainError):
            InterfaceGrid(3, np.zeros(shape))
    g = InterfaceGrid(2, [[1, 2], [3, 4]])
    d = g.diagonal()
    assert d.tolist() == [1.0, 4.0] and d.flags.writeable
    d[0] = 7.0
    assert g.at(1, 1) == 1.0


def test_interface_grid_at_is_one_based_and_bounded():
    g = InterfaceGrid(3, np.arange(9.0).reshape(3, 3))
    assert [g.at(1, 1), g.at(1, 3), g.at(3, 1), g.at(3, 3)] == [0.0, 2.0, 6.0, 8.0]
    # at(0, 0) once returned phi(N, N), at(-1, 1) another site, and
    # at(n + 1, 1) a bare IndexError
    for i, j in [(0, 0), (0, 1), (1, 0), (-1, 1), (1, -1), (4, 1), (1, 4), (4, 4)]:
        with pytest.raises(DomainError):
            g.at(i, j)


def test_batch_producers_check_each_block_once(monkeypatch):
    # _phi_batch checks the whole gRSK block, so no grid handed out from it
    # runs the public constructor's checks again
    calls = []
    post_init = InterfaceGrid.__post_init__

    def counted(self):
        calls.append(self.n)
        post_init(self)

    monkeypatch.setattr(InterfaceGrid, "__post_init__", counted)
    draws = list(gibbs_sampler(8, 1.5, 300, 3))
    g = build_phi(UniformField(5), 1.5, 8)
    large_mu_convergence(3, [1e2, 1e3], seeds=4, seed=21)
    assert calls == []
    # each draw is an (n, n) float view of its block, not a copy
    assert len(draws) == 300 and g.values.shape == (8, 8)
    assert all(d.n == 8 and d.values.shape == (8, 8) and d.values.dtype == float for d in draws)
    assert draws[0].values.base is not None and draws[0].values.base is draws[1].values.base
    InterfaceGrid(2, np.zeros((2, 2)))
    assert calls == [2]


def test_a_non_finite_lane_fails_the_first_draw(monkeypatch):
    # the block check in _phi_batch is the only guard of the draws
    real_grsk = interface.grsk

    def one_nan_lane(logw):
        out = real_grsk(logw)
        out.flat[-1] = np.nan  # one site of the last lane
        return out

    monkeypatch.setattr(interface, "grsk", one_nan_lane)
    with pytest.raises(DomainError):
        next(gibbs_sampler(8, 1.5, 300, 3))
    with pytest.raises(DomainError):
        build_phi(UniformField(5), 1.5, 8)


def test_phi_moments_mc_n1_mean():
    # phi(1,1) at N = 1 is one log inverse-gamma weight, of mean -psi(mu)
    mu = 2.0
    r = phi_moments_mc(1, mu, seeds=4000, seed=3)
    assert abs(r["mean"][0, 0] - (-digamma(mu))) < 3.5 * r["stderr"][0, 0]


def test_theta_min_hand_values_n2():
    t = theta_min(2)
    assert t.at(1, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert t.at(1, 2) == pytest.approx(0.0, abs=1e-12)
    assert t.at(2, 1) == pytest.approx(0.0, abs=1e-12)
    assert t.at(2, 2) == pytest.approx(-math.log(2.0), abs=1e-12)
    # a whole float keeps its value
    for n in (2.0, np.int64(2)):
        assert theta_min(n).n == 2 and theta_min(n).values.tobytes() == t.values.tobytes()
    want = large_mu_convergence(2, [10.0], 2, 1)["sup_norms"]
    assert large_mu_convergence(2.0, [10.0], 2, 1)["sup_norms"].tobytes() == want.tobytes()


def test_theta_min_corner_is_central_binomial():
    for n in (2, 5, 12, 30):
        t = theta_min(n)
        assert t.at(1, 1) == pytest.approx(
            math.log(math.comb(2 * n - 2, n - 1)), rel=1e-12
        )


def test_theta_min_symmetric_and_count_form():
    n = 6
    t = theta_min(n)
    assert np.allclose(t.values, t.values.T)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert t.at(i, j) == pytest.approx(
                theta_min_log_count_form(n, i, j), abs=1e-9
            )


def test_grad_at_theta_min_vanishes():
    for n in (2, 3, 8, 16):
        g = grad_F(theta_min(n))
        assert np.abs(g.values).max() < 1e-9


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        v = rng.standard_normal((n, n)) * 0.5
        grid = InterfaceGrid(n, v)
        g = grad_F(grid).values
        h = 1e-6
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            vp = v.copy()
            vp[i, j] += h
            vm = v.copy()
            vm[i, j] -= h
            fd = (energy_F(InterfaceGrid(n, vp)) - energy_F(InterfaceGrid(n, vm))) / (
                2 * h
            )
            assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_energy_hessian_diagonal_dominance():
    # the Hessian has H_zz = sum of e^(edge gaps) at z (+ corner term) and
    # off-diagonal row sums equal to the same edge total, so dominance is
    # weak everywhere and strict at the corner
    rng = np.random.default_rng(6)
    n = 5
    v = rng.standard_normal((n, n)) * 0.4
    east = np.exp(v[1:, :] - v[:-1, :])
    north = np.exp(v[:, 1:] - v[:, :-1])
    diag = np.zeros((n, n))
    offsum = np.zeros((n, n))
    diag[1:, :] += east
    diag[:-1, :] += east
    diag[:, 1:] += north
    diag[:, :-1] += north
    offsum[:] = diag
    diag[-1, -1] += math.exp(-v[-1, -1])
    assert np.all(diag >= offsum)
    assert diag[-1, -1] > offsum[-1, -1]


def test_theta_rescale():
    f = UniformField(13)
    mu, n = 3.0, 2
    g = build_phi(f, mu, n)
    t = theta_rescale(g, mu)
    assert t.at(1, 1) == pytest.approx(g.at(1, 1) + 3 * math.log(mu))
    assert t.at(2, 2) == pytest.approx(g.at(2, 2) + math.log(mu))


def test_large_mu_convergence():
    r = large_mu_convergence(3, [1e2, 1e3, 1e4], seeds=6, seed=21)
    assert r["decreasing"], r["medians"]


def test_large_mu_convergence_is_the_per_draw_theta_rescale_route():
    n, mu_list, seeds, seed = 4, [3.0, 1e2, 1e5], 7, 21
    r = large_mu_convergence(n, mu_list, seeds=seeds, seed=seed)
    tmin = theta_min(n).values
    want = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        for s in range(seeds):
            phi = build_phi(UniformField(derive_seed(seed, 0x3C, s)), mu, n).values
            want[a, s] = np.abs(theta_rescale(InterfaceGrid(n, phi), mu).values - tmin).max()
    assert r["sup_norms"].tobytes() == want.tobytes()


def test_large_mu_frozen_field_per_site_limit():
    # with the U-field frozen, theta converges site by site to theta_min
    f = UniformField(23)
    n = 3
    tmin = theta_min(n).values
    gap_prev = math.inf
    for mu in (1e3, 1e6):
        th = theta_rescale(build_phi(f, mu, n), mu).values
        gap = np.abs(th - tmin).max()
        assert gap < gap_prev
        gap_prev = gap
    assert gap_prev < 5e-3


def test_small_mu_coupling_report():
    r = small_mu_coupling(4, 3, 1, [1.0, 0.1, 0.01], seeds=60, seed=31)
    assert r["mean_gaps"][0] > r["mean_gaps"][1] > r["mean_gaps"][2]
    assert min(r["frac_decreasing"]) > 0.9


def test_small_mu_coupling_uses_the_derive_seed_streams():
    r = small_mu_coupling(4, 3, 2, [0.1], seeds=6, seed=31)
    want = [last_passage(UniformField(derive_seed(31, 0x5C, i)), 4, 3, 2) for i in range(6)]
    np.testing.assert_array_equal(r["last_passage"], want)


def test_small_mu_coupling_checks_its_range_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("omega_grid ran before the range check")

    monkeypatch.setattr(polymer, "omega_grid", refuse)
    # m > N: the 3 x 4 rectangle holds 2-paths, so only the tau range refuses
    for n, m, k in ((3, 4, 2), (4, 3, 0), (4, 2, 3)):
        with pytest.raises(DomainError, match="1 <= k <= m <= N"):
            small_mu_coupling(n, m, k, [0.1], 4, 1)


def test_build_phi_refuses_seed_lanes():
    lanes = np.array([1, 2, 3], dtype=np.uint64)
    with pytest.raises(DomainError, match="phi_moments_mc"):
        build_phi(lanes, 2.0, 4)
    with pytest.raises(DomainError):
        phi_inversion_residual(lanes, 2.0, 4)


def test_small_mu_full_rectangle_exact_coupling():
    # k = m = n: tau is the full product, so mu log tau tends to the sum of
    # the coupled exponentials exactly
    f = UniformField(33)
    n = m = k = 2
    e = omega_grid(
        f, WeightSpec("exp1"), np.arange(1, 3)[:, None], np.arange(1, 3)[None, :]
    ).sum()
    gaps = []
    for mu in (0.1, 0.001):
        t = TauTable(f, mu, n).log_tau(m, k)
        gaps.append(abs(mu * t - float(e)))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def test_gt_volume_values():
    assert gt_volume([1.0, 0.0]) == pytest.approx(1.0)
    assert gt_volume([2.0, 1.0, 0.0]) == pytest.approx(1.0)
    assert gt_volume([1.0, 2.0]) == 0.0
    assert gt_volume([1.0, 1.0]) == 0.0


def test_gt_volume_rejection_mc_oracle():
    # hit-or-miss on the bounding box of the interlacing polytope, N = 3:
    # free sites (1,2), (2,3), (1,3) with decreasing-along-edges constraints
    lam = [2.0, 1.0, 0.0]
    rng = np.random.default_rng(42)
    trials = 200000
    box = rng.uniform(lam[2], lam[0], size=(trials, 3))  # u12, u23, u13
    u12, u23, u13 = box[:, 0], box[:, 1], box[:, 2]
    # interlacing: lam1 >= u12 >= lam2, lam2 >= u23 >= lam3 (rows),
    # u12 >= u13 >= u23 (middle chain)
    ok = (
        (u12 <= lam[0])
        & (u12 >= lam[1])
        & (u23 <= lam[1])
        & (u23 >= lam[2])
        & (u13 <= u12)
        & (u13 >= u23)
    )
    vol_box = (lam[0] - lam[2]) ** 3
    mc = ok.mean() * vol_box
    stderr = vol_box * math.sqrt(ok.mean() * (1 - ok.mean()) / trials)
    assert gt_volume(lam) == pytest.approx(mc, abs=max(3 * stderr, 0.02))


def test_gt_interlacing_of_minors_process():
    grid = minors_process(gue_matrix(6, seed=44))
    assert is_gt_pattern(grid, 6, tol=1e-10)


def test_gt_pattern_refuses_an_increase_along_either_step():
    # (1, 2) -> (2, 2) and (1, 1) -> (1, 2) rise by 1: refused, unless
    # the tolerance covers the rise
    for tri in ({(1, 2): 0.0, (2, 2): 1.0}, {(1, 1): 0.0, (1, 2): 1.0}):
        assert not is_gt_pattern(tri, 2)
        assert is_gt_pattern(tri, 2, tol=1.0)


def test_whittaker_gl2_values():
    # the closed form against quadrature of the pattern integral
    def integrand(phi, l1, l2):
        return math.exp(-math.exp(phi - l1) - math.exp(l2 - phi))

    assert whittaker_gl2_bessel(0.0, 0.0) == pytest.approx(0.2277877, abs=1e-6)
    for l1, l2 in [(0.0, 0.0), (0.5, -0.3), (2.0, 1.0), (-1.0, 1.5)]:
        c = 0.5 * (l1 + l2)
        want, _ = scipy.integrate.quad(integrand, c - 40.0, c + 40.0, args=(l1, l2), points=[c])
        assert whittaker_gl2_bessel(l1, l2) == pytest.approx(want, rel=1e-10)


def test_whittaker_gl2_monotone_and_shift():
    assert whittaker_gl2_bessel(1.0, 0.0) > whittaker_gl2_bessel(0.0, 0.0)
    # depends only on lam2 - lam1
    a = whittaker_gl2_bessel(0.3, -0.2)
    b = whittaker_gl2_bessel(1.3, 0.8)
    assert a == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize(
    "lam1, lam2", [(0.0, 1500.0), (1500.0, 0.0), (0.0, 11.9), (0.5, -0.3), (0.0, 10.0), (40.0, 0.0)]
)
def test_whittaker_gl2_is_total(lam1, lam2):
    # at (0, 1500) e^750 overflows, at (1500, 0) e^-750 underflows to 0.0
    # where K0 is -log(z / 2) - gamma, and at (0, 11.9) the true value
    # e^-769.9 rounds to 0.0.  The exponential of log g carries about
    # |log g| eps of relative error: under 2e-13 down to the float range
    with mpmath.workdps(40):
        want = float(2 * mpmath.besselk(0, 2 * mpmath.exp((mpmath.mpf(lam2) - lam1) / 2)))
    got = whittaker_gl2_bessel(lam1, lam2)
    assert got == pytest.approx(want, rel=2e-13, abs=0.0), (got, want)


def test_whittaker_measure_n1_reduces_to_interface():
    mu = 2.0
    for lam in (-1.0, 0.0, 2.0):
        direct = whittaker_measure_logdensity([lam], mu, 1)
        via_grid = interface_log_density(InterfaceGrid(1, np.array([[lam]])), mu)
        assert direct == pytest.approx(via_grid, rel=1e-12)


def test_whittaker_measure_n2_total_mass():
    # tensor Gauss-Legendre quadrature of the n=2 density; the Bessel form
    # of the pattern integral keeps this fast (gl2 equality tested above)
    mu = 2.0
    nodes, weights = np.polynomial.legendre.leggauss(96)
    lo, hi = -10.0, 12.0
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    k0sq = np.empty((96, 96))
    for a in range(96):
        for b in range(96):
            k0sq[a, b] = (2.0 * bessel_k0(2.0 * math.exp(0.5 * (x[b] - x[a])))) ** 2
    dens = (
        np.exp(-np.exp(-x[None, :]) - mu * (x[:, None] + x[None, :]))
        * k0sq
        / math.exp(4.0 * log_gamma(mu))
    )
    total = float(w @ dens @ w)
    assert total == pytest.approx(1.0, abs=1e-4)


def _whittaker_n2_mpmath(lam1, lam2, mu):
    lam1, lam2 = mpmath.mpf(lam1), mpmath.mpf(lam2)
    g = 2 * mpmath.besselk(0, 2 * mpmath.exp((lam2 - lam1) / 2))
    return -mpmath.exp(-lam2) - mu * (lam1 + lam2) + 2 * mpmath.log(g) - 4 * mpmath.loggamma(mu)


@pytest.mark.parametrize("gap", [-60.0, 0.0, 11.80, 11.833, 20.0, 100.0, 1400.0, -1600.0])
def test_whittaker_measure_logdensity_is_total(gap):
    # K0 is subnormal from a gap of about 11.80 and 0.0 from 11.833, where
    # math.log of it lost digits or raised; lam_1 = 0.5 keeps lam_2 - lam_1
    # exact, and at -1600 the Bessel argument underflows to 0.0
    lam1 = 1000.0 if gap == -1600.0 else 0.5
    lam2 = lam1 + gap
    with mpmath.workdps(40):
        want = _whittaker_n2_mpmath(lam1, lam2, 2.0)
        got = whittaker_measure_logdensity([lam1, lam2], 2.0, 2)
        assert abs((got - want) / want) <= 1e-14, (gap, got, want)


def test_whittaker_measure_logdensity_is_minus_inf_below_the_float_range():
    # e^800 and the Bessel argument 2 e^750 overflow: the log density lies
    # below -DBL_MAX, and no OverflowError is raised
    assert whittaker_measure_logdensity([0.5, -800.0], 2.0, 2) == -math.inf
    assert whittaker_measure_logdensity([0.5, 1500.5], 2.0, 2) == -math.inf
    assert whittaker_measure_logdensity([-800.0], 2.0, 1) == -math.inf


@given(
    n=st.integers(1, 64),
    mu=st.floats(0.5, 10.0),
    seed=st.integers(-(2**63), 2**64 - 1),
)
@settings(max_examples=40, deadline=None)
def test_grsk_conserves_the_energy(n, mu, seed):
    # gRSK maps the log weights x onto phi preserving the volume and the
    # energy: the interface density at phi is the weight density at x,
    # sum(-mu x - e^-x) - N^2 log Gamma(mu)
    f = UniformField(seed)
    x = loggamma_rectangle(f, mu, n, n)
    want = float((-mu * x - np.exp(-x)).sum()) - n * n * log_gamma(mu)
    got = interface_log_density(build_phi(f, mu, n), mu)
    scale = float((np.abs(mu * x) + np.exp(-x)).sum()) + n * n * abs(log_gamma(mu))
    assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (4, 3)])
def test_grsk_jacobian_has_unit_determinant(shape):
    # central differences of the log-space map, all 2 n m perturbed inputs
    # in one batched grsk call
    h = 1e-5
    for seed in (1, 7):
        x = loggamma_rectangle(UniformField(seed), 1.5, *shape).reshape(-1)
        d = x.size
        pert = np.concatenate([x + h * np.eye(d), x - h * np.eye(d)])
        out = grsk(pert.reshape((2 * d,) + shape)).reshape(2, d, d)
        jac = (out[0] - out[1]) / (2.0 * h)
        assert abs(abs(np.linalg.det(jac)) - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(lambda: theta_min_log_count_form(3, 2, 1), DomainError, "1 <= i <= j <= n", id="count_form_i_gt_j"),
        pytest.param(lambda: theta_min_log_count_form(3, 0, 1), DomainError, "1 <= i <= j <= n", id="count_form_i_0"),
        pytest.param(lambda: theta_min_log_count_form(3, 1, 4), DomainError, "1 <= i <= j <= n", id="count_form_j_big"),
        pytest.param(
            lambda: whittaker_measure_logdensity([1.0, 0.5, 0.0], 2.0, 3), DomainError, "n in", id="whittaker_n3"
        ),
        pytest.param(
            lambda: whittaker_measure_logdensity([1.0], 2.0, 2), DomainError, "n in", id="whittaker_short_lam"
        ),
        pytest.param(lambda: theta_rescale(theta_min(3), 0.0), DomainError, "mu > 0", id="theta_rescale_mu_0"),
        pytest.param(lambda: theta_rescale(theta_min(3), -1.0), DomainError, "mu > 0", id="theta_rescale_mu_neg"),
        # numpy's bare "negative dimensions" ValueError, and an empty grid at 0
        pytest.param(lambda: theta_min(-2), DomainError, "n >= 1", id="theta_min_neg"),
        pytest.param(lambda: theta_min(0), DomainError, "n >= 1", id="theta_min_0"),
        pytest.param(lambda: theta_min(2.5), DomainError, "integral n >= 1", id="theta_min_fraction"),
        pytest.param(lambda: large_mu_convergence(-2, [10.0], 2, 1), DomainError, "n >= 1", id="large_mu_convergence_neg"),
        pytest.param(lambda: InterfaceGrid(2, [[1.0, 2.0], [3.0]]), DomainError, "array of numbers", id="grid_ragged"),
        pytest.param(lambda: InterfaceGrid(2, [["a", "b"], ["c", "d"]]), DomainError, "array of numbers", id="grid_text"),
    ],
)
def test_interface_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
