import math

import mpmath
import numpy as np
import pytest

from nipoly import environment, rmt, shapes
from nipoly.environment import UniformField, WeightSpec, derive_seed
from nipoly.errors import DomainError
from nipoly.interface import large_mu_convergence, phi_moments_mc, small_mu_coupling
from nipoly.lattice import stack_diag
from nipoly.polymer import (
    free_energy_mc,
    jensen_sandwich_check,
    k_linearity_probe,
    last_passage,
    parallel_series_bound_mc,
    rost_ell,
)
from nipoly.shapes import (
    affine_wulff_check,
    bead_scaling_residual,
    bead_sigma,
    bead_sigma_tilted,
    diagonal_free_energy_check,
    fluctuation_mc,
    gue_quantile_gap,
    johansson_check,
    lue_quantile_gap,
    mp_edges,
    mp_mass_above,
    mp_quantile,
    omega_identity_check,
    omega_identity_pv_check,
    sc_cdf,
    sc_cdf_check,
    sc_hilbert_pv,
    sc_quantile,
    superfactorial_asymptotic_check,
    theta_min_vs_xi_ht_gap,
    xi_edge_bottom,
    xi_edge_top,
    xi_ht,
    xi_mp,
    xi_sc,
)
from nipoly.special import digamma

GAMMA = 0.5772156649015329


def test_mp_quantile_edges():
    for c in (0.25, 0.5, 1.0):
        m_c, big_m = mp_edges(c)
        assert mp_quantile(c, 0.0) == pytest.approx(big_m)
        assert mp_quantile(c, c) == pytest.approx(m_c)
        assert big_m == pytest.approx((1 + math.sqrt(c)) ** 2)


def test_mp_median_closed_form():
    # solve t + sin t cos t = pi/4, median = 4 sin^2 t
    lo, hi = 0.0, 0.5 * math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid + math.sin(mid) * math.cos(mid) < math.pi / 4:
            lo = mid
        else:
            hi = mid
    target = 4.0 * math.sin(0.5 * (lo + hi)) ** 2
    assert mp_quantile(1.0, 0.5) == pytest.approx(target, abs=1e-8)
    assert mp_quantile(1.0, 0.5) == pytest.approx(0.6527, abs=2e-4)


def test_mp_roundtrip_and_monotone():
    for c in (0.5, 1.0):
        prev = math.inf
        for alpha in np.linspace(0.05 * c, 0.95 * c, 7):
            rho = mp_quantile(c, float(alpha))
            assert rho < prev
            prev = rho
            assert mp_mass_above(c, rho) == pytest.approx(alpha / c, abs=1e-10)


@pytest.mark.parametrize("c", [0.99, 0.999, 0.9999])
def test_mp_lower_edge_vs_mpmath(c):
    # 1 + c - 2 sqrt(c) cancels as c -> 1 (relative error 4.8e-9 at 0.9999)
    with mpmath.workdps(40):
        want = (1 - mpmath.sqrt(mpmath.mpf(c))) ** 2
    assert mp_edges(c)[0] == pytest.approx(float(want), rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [1e-9, 1e-6])
@pytest.mark.parametrize("c", [0.99, 0.999, 1.0])
def test_mp_mass_above_lower_edge_vs_mpmath(c, d):
    # just above the lower edge the density blows up like 1/sqrt near c = 1
    a, _ = mp_edges(c)
    rho = a + d
    with mpmath.workdps(40):
        cm = mpmath.mpf(c)
        lo, hi = (1 - mpmath.sqrt(cm)) ** 2, (1 + mpmath.sqrt(cm)) ** 2
        target = mpmath.quad(
            lambda x: mpmath.sqrt((hi - x) * (x - lo)) / (2 * mpmath.pi * cm * x),
            [mpmath.mpf(rho), hi],
        )
    assert mp_mass_above(c, rho) == pytest.approx(float(target), abs=1e-12)


def test_xi_mp_properties():
    assert xi_mp(0.0, 1.0 - 0.5) == pytest.approx((1 + math.sqrt(0.5)) ** 2)
    assert xi_mp(0.3, 0.7) == pytest.approx(xi_mp(0.7, 0.3))
    assert xi_mp(0.4, 0.4) == pytest.approx(mp_quantile(1.0, 0.4))


def test_xi_mp_matches_rost():
    for c in (0.25, 0.5, 0.75, 1.0):
        assert xi_mp(0.0, 1.0 - c) == pytest.approx(rost_ell(c), abs=1e-9)


def test_xi_mp_on_the_unit_square():
    # 1 at (0, 1), the limit of both MP edges, and rost_ell(0)
    assert xi_mp(0.0, 1.0) == xi_mp(1.0, 0.0) == rost_ell(0.0) == 1.0
    assert xi_mp(1e-9, 1.0) == pytest.approx(1.0, abs=1e-3)
    for s, t in ((0.5, 1.2), (-0.1, 0.5), (0.5, -0.1)):
        with pytest.raises(DomainError, match="unit square"):
            xi_mp(s, t)


def test_xi_edge_top_checks_mu_first():
    for mu in (0.0, -1.0):
        for t in (0.0, 0.5, 1.0):
            with pytest.raises(DomainError, match="mu > 0"):
                xi_edge_top(mu, t)


def test_xi_edge_bottom_checks_mu_first():
    for mu in (0.0, -0.5, -1.0):
        for t in (0.5, 1.0):
            with pytest.raises(DomainError, match="xi_edge_bottom requires mu > 0"):
                xi_edge_bottom(mu, t)


def test_sc_quantile_values():
    assert sc_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert sc_quantile(0.0) == 2.0
    assert sc_quantile(1.0) == -2.0
    # round trip
    for x in (0.1, 0.33, 0.77):
        rho = sc_quantile(x)
        assert 1.0 - sc_cdf(rho) == pytest.approx(x, abs=1e-10)


def _sc_quantile_mpmath(x):
    """2 sin phi with 1/2 - (phi + sin phi cos phi)/pi = x, at 400 digits so
    the cancellation near phi = pi/2 costs nothing; Newton from the
    leading-order tail phi = pi/2 - (12 pi x)^(1/3) / 2."""
    with mpmath.workdps(400):
        x = mpmath.mpf(x)
        if x == 1:
            return -2.0
        f = lambda p: 0.5 - (p + mpmath.sin(p) * mpmath.cos(p)) / mpmath.pi - x
        if x < 0.01:
            p0 = mpmath.pi / 2 - mpmath.cbrt(12 * mpmath.pi * x) / 2
        else:
            p0 = -mpmath.pi / 2 + mpmath.cbrt(12 * mpmath.pi * (1 - x)) / 2
        return float(2 * mpmath.sin(mpmath.findroot(f, p0)))


def test_sc_quantile_tails_match_mpmath():
    # the mass above rho near 2 is ~ psi^3 with psi = pi/2 - phi; the
    # unsubstituted form loses it to rounding below x ~ 1e-17
    for x in (1e-300, 1e-30, 1e-17, 1e-10):
        for mass in (x, 1.0 - x):
            ref = _sc_quantile_mpmath(mass)
            assert sc_quantile(mass) == pytest.approx(ref, rel=1e-13, abs=0.0), mass


def test_sc_hilbert_pv_raises_where_quadrature_fails():
    # the pole r ~ 6e-12 crowds the endpoint: QUADPACK runs out of subdivisions
    for phi in (1.5706, -1.5706):
        with pytest.raises(DomainError):
            sc_hilbert_pv(phi)
    assert sc_hilbert_pv(1.569) == pytest.approx(-math.sin(1.569), abs=1e-9)


def test_sc_cdf_quadrature_residual():
    for phi in (-1.2, -0.3, math.pi / 6, 1.1):
        assert sc_cdf_check(phi) < 1e-12


def test_xi_sc_symmetric():
    assert xi_sc(0.2, 0.6) == pytest.approx(xi_sc(0.6, 0.2))
    assert xi_sc(0.0, 0.0) == pytest.approx(2.0)
    assert xi_sc(0.0, 1.0) == 0.0 and xi_sc(1.0, 0.0) == 0.0


def test_sc_cdf_is_0_and_1_outside_the_support():
    for x in (-2.0, -2.5, -1e300):
        assert sc_cdf(x) == 0.0
    for x in (2.0, 2.5, 1e300):
        assert sc_cdf(x) == 1.0


def test_xi_ht_values():
    assert xi_ht(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert xi_ht(0.0, 0.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert xi_ht(0.3, 0.8) == pytest.approx(xi_ht(0.8, 0.3))


def test_xi_ht_theta_min_convergence():
    gaps = [theta_min_vs_xi_ht_gap(n) for n in (20, 40, 80)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.15


def test_edge_curves_consistency():
    for mu in (1.0, 2.0, 3.7):
        assert xi_edge_bottom(mu, 1.0) == pytest.approx(-digamma(mu), abs=1e-9)
        assert xi_edge_top(mu, 0.0) == pytest.approx(-digamma(mu), abs=1e-9)
    assert xi_edge_bottom(1.0, 1.0) == pytest.approx(GAMMA, abs=1e-10)


def _xi_edge_top_mpmath(mu: float, t: float) -> float:
    # bisection on log theta for t psi1(theta) = psi1(mu + theta) at 40
    # digits; the value is stationary in theta, so its error is quadratic
    with mpmath.workdps(40):
        mu, t = mpmath.mpf(mu), mpmath.mpf(t)

        def deriv(u):
            th = mpmath.exp(u)
            return t * mpmath.psi(1, th) - mpmath.psi(1, mu + th)

        lo, hi = mpmath.log(mpmath.mpf(1e-14)), mpmath.mpf(0)
        while deriv(hi) > 0:
            hi += 1
        for _ in range(150):
            mid = (lo + hi) / 2
            if deriv(mid) > 0:
                lo = mid
            else:
                hi = mid
        th = mpmath.exp((lo + hi) / 2)
        return float(t * mpmath.digamma(th) - mpmath.digamma(mu + th))


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.7, 10.0, 50.0])
def test_xi_edge_top_against_mpmath(mu):
    for t in (0.05, 0.3, 0.5, 0.9, 0.999):
        assert xi_edge_top(mu, t) == pytest.approx(_xi_edge_top_mpmath(mu, t), abs=1e-13)


def test_xi_edge_top_near_one():
    # the stationary theta ~ t mu / (1 - t) = 1e14 lies past any fixed cap
    t = 1.0 - 1e-13
    assert xi_edge_top(10.0, t) == pytest.approx(_xi_edge_top_mpmath(10.0, t), abs=1e-13)


def test_xi_edge_top_without_bracket_raises():
    # t = 1e-40: the stationary theta ~ 1e-20 lies below the bracket's 1e-14
    with pytest.raises(DomainError):
        xi_edge_top(1.0, 1e-40)
    # mu = 1e308, t = 0.9: the stationary theta ~ 9e308 overflows
    with pytest.raises(DomainError):
        xi_edge_top(1e308, 0.9)


def test_edge_bottom_t0_is_sepp():
    from nipoly.polymer import sepp_free_energy

    for mu in (1.0, 2.0):
        assert xi_edge_bottom(mu, 0.0) == pytest.approx(
            sepp_free_energy(mu, 1.0), abs=1e-8
        )
    assert xi_edge_bottom(2.0, 0.0) == pytest.approx(2 * GAMMA, abs=1e-8)


def test_diagonal_free_energy():
    r = diagonal_free_energy_check(2.0, 1.0, 100, replicas=40, seed=5)
    assert r["ok"], r
    assert r["target"] == pytest.approx(digamma(2.0) * -1.0)
    # variance prediction within a loose MC band
    assert r["var"] == pytest.approx(r["var_pred"], rel=0.6)


def test_bead_sigma_cone():
    assert bead_sigma_tilted(-1.0, 0.0) == pytest.approx(0.0)
    assert bead_sigma_tilted(1.0, 0.0) == math.inf
    assert bead_sigma_tilted(-1.0, 1.5) == math.inf
    assert bead_sigma_tilted(-1.0, 1.0) == math.inf
    # q -> |p| sends the tension to +infinity continuously
    vals = [bead_sigma_tilted(-1.0, q) for q in (0.9, 0.99, 0.999)]
    assert vals[0] < vals[1] < vals[2]
    assert bead_sigma(-0.5, -0.5) == pytest.approx(bead_sigma_tilted(-1.0, 0.0))
    assert bead_sigma(-1.0, 0.5) == math.inf


def test_bead_scaling_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = -math.exp(rng.uniform(-2, 2))
        q = rng.uniform(-0.99, 0.99) * abs(p)
        lam = math.exp(rng.uniform(-2, 2))
        assert bead_scaling_residual(p, q, lam) < 1e-12


def test_bead_sigma_untilted_closed_form():
    for s, t in [(-0.2, -0.7), (-1.0, -0.3), (-2.5, -0.1), (-0.05, -3.0), (-1.3, -1.7)]:
        expected = -math.log(abs(s + t) * math.sin(math.pi * s / (s + t)))
        assert bead_sigma(s, t) == pytest.approx(expected, abs=1e-12)
        assert bead_sigma(t, s) == pytest.approx(expected, abs=1e-12)


def test_bead_sigma_blows_up_at_quadrant_edge():
    vals = [bead_sigma(-1.0, t) for t in (-1e-2, -1e-4, -1e-6, -1e-8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # sigma(-1, t) = -log(pi |t|) + O(t^2) as t -> 0-
    assert vals[-1] == pytest.approx(-math.log(math.pi * 1e-8), abs=1e-6)


def test_omega_identity_closed_form():
    r = omega_identity_check()
    assert len(r["phis"]) == 99
    assert r["max_residual"] < 1e-12
    # the alternative (typo) reading does not close
    assert r["alt_reading_max_residual"] > 0.1


def test_omega_identity_phi0():
    r = omega_identity_check([0.0])
    assert r["max_residual"] == 0.0


def test_omega_identity_pv_quadrature():
    for phi in (math.pi / 6, -1.0, 1.2, 1.5, -1.5):
        r = omega_identity_pv_check(phi)
        assert r["residual"] < 1e-10, (phi, r)


def test_affine_wulff():
    for b in (-0.5, -1.0, -2.0, -4.0):
        r = affine_wulff_check(b)
        assert r["residual"] < 1e-12, r
        assert abs(r["argmin"]) < 1e-3
    r = affine_wulff_check(-1.0)
    assert r["lhs"] == pytest.approx(0.0, abs=1e-12)
    r = affine_wulff_check(-2.0)
    assert r["lhs"] == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)


def test_superfactorial_asymptotics():
    r1 = superfactorial_asymptotic_check(1.0, 500)
    assert r1["residual"] < 0.02
    r2 = superfactorial_asymptotic_check(2.0, 250)
    assert r2["residual"] < 0.04
    # doubling N roughly halves the residual
    r3 = superfactorial_asymptotic_check(1.0, 1000)
    assert r3["residual"] < 0.7 * r1["residual"]


def test_gue_quantile_gap_small():
    assert gue_quantile_gap(150, seed=9) < 0.15


def test_lue_quantile_gap_small():
    # the gap of one sample exceeds 0.08 with probability about 0.2 (1000
    # seeds, dense X X* and tridiagonal samplers alike; its mean is 0.064),
    # so the bound holds for the mean over 100 seeds
    gaps = [lue_quantile_gap(150, 75, seed=s) for s in range(11, 111)]
    assert np.mean(gaps) < 0.08


def test_johansson_trivial_k_equals_m():
    # k = m: L is the full-rectangle sum and the eigensum is the trace;
    # both means are m*n
    r = johansson_check(4, 2, 2, samples=4000, seed=13)
    assert r["mean_L"] == pytest.approx(8.0, abs=4 * r["stderr_L"])
    assert r["mean_eigsum"] == pytest.approx(8.0, abs=4 * r["stderr_eigsum"])
    assert r["ok_means"]


def test_johansson_k1():
    r = johansson_check(5, 3, 1, samples=8000, seed=15)
    assert r["ok_means"], r
    assert r["ks"] < 0.05


@pytest.mark.parametrize("k", [1, 3])
def test_johansson_uses_derive_seed_streams(k):
    # the seeds straddle 2**63, where an array without a dtype turns float64
    seeds = [derive_seed(21, 0x10, s) for s in range(6)]
    assert min(seeds) < 2**63 < max(seeds)
    want = np.mean([last_passage(UniformField(s), 5, 4, k) for s in seeds])
    assert johansson_check(5, 4, k, samples=6, seed=21)["mean_L"] == pytest.approx(want, abs=1e-12)


def _record(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def probe(*args):
        calls.append((name, args))
        return fn(*args)

    monkeypatch.setattr(module, name, probe)


def test_johansson_batch_seeds_equal_the_scalar_loop(monkeypatch):
    calls = []
    _record(monkeypatch, shapes, "last_passage_batch", calls)
    _record(monkeypatch, shapes, "lue_sample_batch", calls)
    johansson_check(5, 4, 1, samples=40, seed=21)
    assert [name for name, _ in calls] == ["last_passage_batch", "lue_sample_batch"]
    # last_passage_batch(seeds, n, m, k) and lue_sample_batch(n, m, seeds)
    for seeds, stream in zip((calls[0][1][0], calls[1][1][2]), (0x10, 0x20)):
        want = np.array([derive_seed(21, stream, s) for s in range(40)], dtype=np.uint64)
        assert min(want) < 2**63 < max(want)
        assert seeds.dtype == np.uint64
        np.testing.assert_array_equal(seeds, want)


def test_fluctuation_mc_chunk_seeds_equal_the_scalar_loop(monkeypatch):
    calls, derivations = [], []
    _record(monkeypatch, shapes, "loggamma_rectangle", calls)
    _record(monkeypatch, shapes, "_replica_lanes", derivations)
    # 16 sites per sample at n = 4: lane blocks of 3 samples
    monkeypatch.setattr(environment, "_LANE_CELLS", 48)
    fluctuation_mc(1.0, 4, [0.5, 1.0], samples=7, seed=17)
    got = np.concatenate([args[0].ravel() for _, args in calls])
    want = np.array([derive_seed(17, 0xF1, s) for s in range(7)], dtype=np.uint64)
    assert [args[0].shape for _, args in calls] == [(3,), (3,), (1,)]
    np.testing.assert_array_equal(got, want)
    assert len(derivations) == 1


def test_johansson_derives_seeds_in_array_calls(monkeypatch):
    # O(1) derivations per check, not one per sample, at every binding
    counts = {"derive_seed": 0, "derive_seeds": 0}
    for name in counts:
        fn = getattr(environment, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        for module in (environment, shapes, rmt):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    johansson_check(12, 12, 1, samples=300, seed=5)
    assert counts["derive_seed"] <= 2
    assert 2 <= counts["derive_seeds"] <= 8


def test_fluctuation_mc_small():
    r = fluctuation_mc(1.0, 60, [0.25, 0.5, 1.0], samples=800, seed=17)
    for a, t in enumerate(r["t"]):
        assert r["var"][a] == pytest.approx(t, rel=0.2)
    assert all(abs(c) < 0.12 for c in r["incr_corr"])
    assert abs(r["skewness"]) < 0.25
    assert abs(r["excess_kurtosis"]) < 0.5
    assert r["mean"][-1] == pytest.approx(r["mean_offset_pred"][-1], abs=0.05)


def test_johansson_k_above_min_side_raises():
    # there are no 3-paths in the 4 x 2 rectangle
    with pytest.raises(DomainError):
        johansson_check(4, 2, 3, samples=10, seed=1)


def test_domain_errors():
    with pytest.raises(DomainError):
        mp_quantile(1.0, 1.5)
    with pytest.raises(DomainError):
        sc_quantile(1.2)
    with pytest.raises(DomainError):
        xi_edge_bottom(1.0, 2.0)
    with pytest.raises(DomainError):
        affine_wulff_check(1.0)
    with pytest.raises(DomainError):
        omega_identity_pv_check(1.57079)  # the pole r is 0 in floating point
    # inputs with nothing to measure: no eigenvalue, no weight on the
    # k-path (varpi = 0), no replica
    with pytest.raises(DomainError):
        gue_quantile_gap(0, seed=1)
    with pytest.raises(DomainError):
        lue_quantile_gap(4, 0, seed=1)
    with pytest.raises(DomainError):
        jensen_sandwich_check(WeightSpec("gauss"), 1.0, _XS2, _XS2, 5, seed=2)
    with pytest.raises(DomainError):
        parallel_series_bound_mc(WeightSpec("gauss"), 1.0, replicas=0, seed=2)
    # the limit shapes live on the unit square
    for shape, s, t in ((xi_sc, 0.2, 1.5), (xi_ht, 0.5, 3.0), (xi_ht, -1.0, 0.5)):
        with pytest.raises(DomainError):
            shape(s, t)
    # an empty rectangle, grid or t_grid: floor(cN) = 0, N = 0
    with pytest.raises(DomainError):
        diagonal_free_energy_check(2.0, 0.05, 10, 4, 1)
    with pytest.raises(DomainError):
        diagonal_free_energy_check(2.0, 1.0, 0, 4, 1)
    with pytest.raises(DomainError):
        fluctuation_mc(1.0, 5, [], 3, 1)
    with pytest.raises(DomainError):
        omega_identity_check([])
    with pytest.raises(DomainError):
        k_linearity_probe(WeightSpec("loggamma", mu=2.0), 1.0, 1.0, 0, 3, seed=1)
    with pytest.raises(DomainError):
        theta_min_vs_xi_ht_gap(0)


def test_fluctuation_mc_refuses_an_empty_diagonal():
    # floor(0.05 * 10) = 0: H(0, 0) holds no weights
    with pytest.raises(DomainError):
        fluctuation_mc(1.0, 10, [0.05, 1.0], samples=4, seed=3)
    with pytest.raises(DomainError):
        fluctuation_mc(0.0, 10, [0.5, 1.0], samples=4, seed=3)
    # floor(1.5 * 4) = 6 > N: tau(6, 6) needs 6 <= N
    with pytest.raises(DomainError):
        fluctuation_mc(1.0, 4, [0.5, 1.5], samples=3, seed=1)
    # floor(0.5 * 8) = floor(0.55 * 8) = 4: a zero increment, a NaN correlation
    with pytest.raises(DomainError):
        fluctuation_mc(1.0, 8, [0.5, 0.55], samples=3, seed=1)
    r = fluctuation_mc(1.0, 10, [0.1, 1.0], samples=4, seed=3)
    assert np.all(np.isfinite(r["var_over_t"]))


def _recording(monkeypatch, name):
    calls = []
    fn = getattr(shapes, name)

    def record(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(shapes, name, record)
    return calls


def test_gue_quantile_gap_calls_each_quantile_once_in_order(monkeypatch):
    n, seed = 12, 5
    samples = _recording(monkeypatch, "gue_sample")
    quantiles = _recording(monkeypatch, "sc_quantile")
    gap = gue_quantile_gap(n, seed)
    assert samples == [(n, seed)]
    assert quantiles == [((i + 0.5) / n,) for i in range(n)]
    eigs = rmt.gue_sample(n, seed) / math.sqrt(n)
    assert gap == max(abs(eigs[i] - sc_quantile((i + 0.5) / n)) for i in range(n))


def test_lue_quantile_gap_calls_each_central_quantile_once_in_order(monkeypatch):
    n, m, seed = 40, 30, 5
    samples = _recording(monkeypatch, "lue_sample")
    quantiles = _recording(monkeypatch, "mp_quantile")
    gap = lue_quantile_gap(n, m, seed)
    c = m / n
    lo = 1  # the central 90% of 30 indices drops int(0.05 * 30) at each end
    assert samples == [(n, m, seed)]
    assert quantiles == [(c, c * (i + 0.5) / m) for i in range(lo, m - lo)]
    eigs = rmt.lue_sample(n, m, seed) / n
    assert gap == max(
        abs(eigs[i] - mp_quantile(c, c * (i + 0.5) / m)) for i in range(lo, m - lo)
    )


def test_lue_quantile_gap_trims_a_twentieth_at_m_20():
    # (1 - 0.9) / 2 rounds below 0.05 and would trim nothing at m = 20
    n, m, seed = 40, 20, 5
    c = m / n
    eigs = rmt.lue_sample(n, m, seed) / n
    want = max(abs(eigs[i] - mp_quantile(c, c * (i + 0.5) / m)) for i in range(1, m - 1))
    assert lue_quantile_gap(n, m, seed) == want


_XS2 = stack_diag((1, 1), 2)
_YS2 = tuple((x + 3, y + 3) for x, y in _XS2)


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize(
    "driver",
    [
        lambda r: jensen_sandwich_check(WeightSpec("gauss"), 1.0, _XS2, _YS2, r, seed=2),
        lambda r: k_linearity_probe(WeightSpec("loggamma", mu=2.0), 1.0, 1.0, 6, r, seed=13),
        lambda r: diagonal_free_energy_check(2.0, 1.0, 6, replicas=r, seed=5),
        lambda r: johansson_check(4, 2, 1, samples=r, seed=13),
        lambda r: fluctuation_mc(1.0, 4, [0.5, 1.0], samples=r, seed=17),
        lambda r: free_energy_mc(WeightSpec("loggamma", mu=2.0), 1.0, 1.0, 6, r, seed=5),
        lambda r: phi_moments_mc(3, 1.5, r, seed=8),
    ],
    ids=[
        "jensen_sandwich_check",
        "k_linearity_probe",
        "diagonal_free_energy_check",
        "johansson_check",
        "fluctuation_mc",
        "free_energy_mc",
        "phi_moments_mc",
    ],
)
def test_statistics_need_two_replicas(driver, count):
    # one replica has no standard error: the drivers returned stderr 0.0
    # (and ok True), inf, or NaN statistics behind a RuntimeWarning
    with pytest.raises(DomainError):
        driver(count)


@pytest.mark.parametrize(
    "driver",
    [
        lambda r: parallel_series_bound_mc(WeightSpec("gauss"), 1.0, replicas=r, seed=2, size=2),
        lambda r: large_mu_convergence(3, [1e2, 1e3], r, seed=1),
        lambda r: small_mu_coupling(3, 2, 1, [1.0, 0.5], r, seed=1),
    ],
    ids=["parallel_series_bound_mc", "large_mu_convergence", "small_mu_coupling"],
)
def test_lane_drivers_need_one_replica(driver):
    # these take no standard error: one replica suffices, and none returned
    # NaN statistics behind a RuntimeWarning
    with pytest.raises(DomainError):
        driver(0)
    driver(1)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(lambda: mp_edges(0.0), DomainError, "c must be in", id="mp_edges_0"),
        pytest.param(lambda: mp_edges(1.5), DomainError, "c must be in", id="mp_edges_big"),
        pytest.param(lambda: sc_cdf_check(0.5 * math.pi), DomainError, "interior", id="sc_cdf_check"),
        pytest.param(lambda: bead_scaling_residual(1.0, 0.0, 2.0), DomainError, "cone-interior", id="bead_scaling"),
        pytest.param(
            lambda: superfactorial_asymptotic_check(0.1, 10), DomainError, r"p\*N >= 2", id="superfactorial"
        ),
        pytest.param(
            lambda: superfactorial_asymptotic_check(math.nan, 10), DomainError, r"p\*N >= 2", id="superfactorial_nan"
        ),
        pytest.param(
            lambda: superfactorial_asymptotic_check(math.inf, 10), DomainError, r"p\*N >= 2", id="superfactorial_inf"
        ),
        pytest.param(lambda: xi_edge_top(2.0, 1.5), DomainError, r"t must lie in \[0, 1\]", id="xi_edge_top_big"),
        pytest.param(lambda: xi_edge_top(2.0, -0.1), DomainError, r"t must lie in \[0, 1\]", id="xi_edge_top_neg"),
        pytest.param(
            lambda: diagonal_free_energy_check(2.0, math.nan, 4, 3, 1), DomainError, "finite", id="diagonal_c_nan"
        ),
        pytest.param(
            lambda: diagonal_free_energy_check(2.0, math.inf, 4, 3, 1), DomainError, "finite", id="diagonal_c_inf"
        ),
        pytest.param(lambda: fluctuation_mc(1.0, 4, [math.nan], 3, 1), DomainError, "finite", id="fluctuation_t_nan"),
        pytest.param(
            lambda: fluctuation_mc(1.0, 4, [0.5, math.inf], 3, 1), DomainError, "finite", id="fluctuation_t_inf"
        ),
    ],
)
def test_shapes_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_xi_edge_top_is_zero_at_t_one():
    assert xi_edge_top(2.0, 1.0) == 0.0
