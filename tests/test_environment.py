import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from nipoly.environment import (
    UniformField,
    WeightSpec,
    coupled_exponential,
    derive_seed,
    omega_grid,
    uniform_at,
    weight_at,
)
from nipoly import environment, special
from nipoly.errors import DomainError
from nipoly.special import digamma, inv_gamma_quantile, log_inv_gamma_quantile


def test_determinism():
    f = UniformField(7)
    assert uniform_at(f, (3, -5)) == uniform_at(f, (3, -5))
    g = UniformField(7)
    assert uniform_at(g, (3, -5)) == uniform_at(f, (3, -5))


def test_strictly_inside_unit_interval():
    f = UniformField(123)
    xs = np.arange(-500, 500)
    u = f.uniform(xs[:, None], xs[None, :])
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniformity_ks():
    f = UniformField(42)
    n = 1000
    xs = np.arange(n)
    u = f.uniform(xs[:, None], xs[None, :]).ravel()  # 10^6 sites
    ks = scipy.stats.kstest(u, "uniform").statistic
    assert ks < 0.002


def test_seed_decorrelation():
    f1, f2 = UniformField(1), UniformField(2)
    xs = np.arange(100000)
    u1 = f1.uniform(xs, 0)
    u2 = f2.uniform(xs, 0)
    corr = np.corrcoef(u1, u2)[0, 1]
    assert abs(corr) < 0.01


def test_derive_seed_changes_field():
    f = UniformField(5)
    g = f.derive(1)
    assert g.seed != f.seed
    assert derive_seed(5, 1) == g.seed
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_scalar_vector_agree():
    f = UniformField(99)
    xs = np.array([0, 1, -7])
    ys = np.array([2, -2, 9])
    vec = f.uniform(xs, ys)
    for i in range(3):
        assert vec[i] == uniform_at(f, (int(xs[i]), int(ys[i])))


def test_weight_at_closed_form_mu1():
    f = UniformField(11)
    z = (4, 9)
    u = uniform_at(f, z)
    assert weight_at(f, WeightSpec("loggamma", mu=1.0), z) == pytest.approx(
        -1.0 / math.log(u), rel=1e-10
    )


def test_weight_monotone_in_u():
    us = [0.1, 0.3, 0.5, 0.7, 0.9]
    zs = [inv_gamma_quantile(2.0, u) for u in us]
    assert zs == sorted(zs)


def test_log_weight_mean_matches_digamma():
    f = UniformField(314)
    n = 1000
    xs = np.arange(n)
    mu = 2.0
    logz = omega_grid(f, WeightSpec("loggamma", mu=mu), xs[:, None], xs[None, :]).ravel()
    mean = logz.mean()
    stderr = logz.std(ddof=1) / math.sqrt(logz.size)
    assert abs(mean - (-digamma(mu))) < 3 * stderr + 1e-4


def test_coupled_exponential():
    f = UniformField(8)
    # quantile inversion: u = 1 - e^-1 gives e = 1
    z = (0, 0)
    u = uniform_at(f, z)
    assert coupled_exponential(f, z) == pytest.approx(-math.log1p(-u))
    xs = np.arange(1000)
    e = omega_grid(f, WeightSpec("exp1"), xs[:, None], xs[None, :]).ravel()
    stderr = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(e.mean() - 1.0) < 3 * stderr


def test_coupling_limit_decreasing_in_mu():
    # the quantile curves can cross at isolated u's, so aggregate over sites
    f = UniformField(21)
    sites = [(i, j) for i in range(10) for j in range(10)]
    mean_gap = []
    frac_down = []
    gaps_prev = None
    for mu in (1.0, 0.1, 0.01):
        gaps = []
        for z in sites:
            u = uniform_at(f, z)
            e = coupled_exponential(f, z)
            gaps.append(abs(mu * math.log(inv_gamma_quantile(mu, u)) - e))
        mean_gap.append(sum(gaps) / len(gaps))
        if gaps_prev is not None:
            frac_down.append(
                sum(1 for a, b in zip(gaps_prev, gaps) if b < a) / len(gaps)
            )
        gaps_prev = gaps
    assert mean_gap[0] > mean_gap[1] > mean_gap[2]
    assert min(frac_down) > 0.8


def test_coupling_continuity_in_mu():
    # log of the quantile moves smoothly with mu: bounded increments that
    # shrink proportionally when the grid is refined
    f = UniformField(77)
    u = uniform_at(f, (1, 1))
    mus = np.linspace(0.5, 5.0, 40)
    vals = np.array([inv_gamma_quantile(m, u) for m in mus])
    steps_coarse = np.abs(np.diff(np.log(vals)))
    mus_fine = np.linspace(0.5, 5.0, 157)
    vals_fine = np.array([inv_gamma_quantile(m, u) for m in mus_fine])
    steps_fine = np.abs(np.diff(np.log(vals_fine)))
    assert steps_coarse.max() < 1.5
    assert steps_fine.max() < steps_coarse.max() / 2.5


@pytest.mark.parametrize(
    "spec,cdf",
    [
        (WeightSpec("loggamma", mu=2.0), lambda x: sps.gammaincc(2.0, 1.0 / np.maximum(x, 1e-12))),
        (WeightSpec("exp1"), lambda x: 1.0 - np.exp(-np.maximum(x, 0.0))),
        (WeightSpec("gauss"), sps.ndtr),
    ],
)
def test_distributional_correctness_continuous(spec, cdf):
    f = UniformField(500)
    xs = np.arange(400)
    w = omega_grid(f, spec, xs[:, None], xs[None, :]).ravel()  # 1.6e5 samples
    if spec.law == "loggamma":
        w = np.exp(w)  # test the weight zeta itself
    ks = scipy.stats.kstest(w, cdf).statistic
    assert ks < 0.01


def test_distributional_correctness_discrete():
    f = UniformField(501)
    xs = np.arange(400)
    w = omega_grid(f, WeightSpec("bernoulli", p=0.3), xs[:, None], xs[None, :]).ravel()
    assert set(np.unique(w)) <= {0.0, 1.0}
    phat = w.mean()
    assert abs(phat - 0.3) < 3 * math.sqrt(0.3 * 0.7 / w.size)
    wc = omega_grid(f, WeightSpec("const", c=2.5), xs, xs)
    assert np.all(wc == 2.5)


def test_moments_helpers():
    assert WeightSpec("gauss").nu() == 0.0
    assert WeightSpec("gauss").log_mgf(1.0) == pytest.approx(0.5)
    assert WeightSpec("bernoulli", p=0.5).log_mgf(1.0) == pytest.approx(
        math.log((1 + math.e) / 2)
    )
    s = WeightSpec("loggamma", mu=2.0)
    assert s.nu() == pytest.approx(-digamma(2.0))
    assert s.log_mgf(1.0) == pytest.approx(0.0)  # E[zeta] = 1/(mu-1) = 1
    assert s.log_mgf(2.0) == math.inf


@pytest.mark.parametrize("mu", [1000.0, 1100.0, 1200.0, 40000.0])
def test_log_inv_gamma_quantile_matches_gammainccinv_at_large_mu(mu):
    # fluctuation_mc draws its weights at mu = kappa N^2 of this size
    u = np.random.default_rng(0).random(200000)
    direct = -np.log(sps.gammainccinv(mu, u))
    assert np.abs(log_inv_gamma_quantile(mu, u) - direct).max() < 1e-12
    # scores beyond the table take the exact route
    u_tail = np.array([1e-12, 1e-20, 1.0 - 1e-12])
    assert np.allclose(log_inv_gamma_quantile(mu, u_tail), -np.log(sps.gammainccinv(mu, u_tail)), rtol=1e-13, atol=0)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    x=st.integers(min_value=-10**6, max_value=10**6),
    y=st.integers(min_value=-10**6, max_value=10**6),
    offset=st.integers(min_value=0, max_value=2 * special._CHUNK),
    mu=st.sampled_from([1e-3, 0.5, 2.0, 5.0, 2000.0]),
)
@settings(max_examples=25, deadline=None)
def test_environment_is_independent_of_evaluation_order(seed, x, y, offset, mu):
    # one site, alone, in a 3x3 block and in a row of two chunks and more
    # (where it lands in any chunk), gives the same bits every time
    f = UniformField(seed)
    spec = WeightSpec("loggamma", mu=mu)
    alone = np.float64(log_inv_gamma_quantile(mu, uniform_at(f, (x, y))))
    d = np.arange(-1, 2)
    block = omega_grid(f, spec, x + d[:, None], y + d[None, :])[1, 1]
    row = omega_grid(f, spec, x, y - offset + np.arange(2 * special._CHUNK + 1))[offset]
    bits = {np.float64(v).view(np.uint64) for v in (alone, block, row)}
    assert len(bits) == 1


_LAWS = [
    WeightSpec("loggamma", mu=2.0),
    WeightSpec("loggamma", mu=1e-3),
    WeightSpec("exp1"),
    WeightSpec("gauss"),
    WeightSpec("bernoulli", p=0.3),
    WeightSpec("const", c=2.5),
]


@given(
    law=st.integers(min_value=0, max_value=len(_LAWS) - 1),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    chunk=st.integers(min_value=1, max_value=64),
    kind=st.sampled_from(["grid", "row", "scalar"]),
    w=st.integers(min_value=1, max_value=40),
    h=st.integers(min_value=1, max_value=40),
    x0=st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_blocked_omega_grid_equals_inline_route_bitwise(law, seed, chunk, kind, w, h, x0):
    # small chunks make many pool tasks with a ragged last block; a chunk
    # larger than the input keeps the whole grid on the calling thread
    spec, f = _LAWS[law], UniformField(seed)
    if kind == "grid":
        x1, x2 = x0 + np.arange(w)[:, None], np.arange(h)[None, :]
    elif kind == "row":
        x1, x2 = x0 + np.arange(w * h), 3
    else:
        x1, x2 = x0, h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_CHUNK", 1 << 40)
        inline = omega_grid(f, spec, x1, x2)
        mp.setattr(special, "_CHUNK", chunk)
        blocked = omega_grid(f, spec, x1, x2)
    assert blocked.shape == inline.shape == np.broadcast_shapes(np.shape(x1), np.shape(x2))
    assert blocked.dtype == inline.dtype == np.float64
    assert np.array_equal(blocked, inline)
    # the inline route is the law's quantile transform of the uniform field
    u = f.uniform(x1, x2)
    want = {
        "loggamma": lambda: log_inv_gamma_quantile(spec.mu, u),
        "exp1": lambda: -np.log1p(-u),
        "gauss": lambda: sps.ndtri(u),
        "bernoulli": lambda: (u < spec.p).astype(np.float64),
        "const": lambda: np.full(np.shape(u), spec.c),
    }[spec.law]()
    assert np.array_equal(inline, want)


def test_blocked_omega_grid_raises_from_a_pool_task(monkeypatch):
    # above mu = 4e5 a uniform beyond ndtr(4.5) is refused; the refusal is
    # raised in one pool task and must reach the caller
    f = UniformField(3)
    i = int(np.argmax(f.uniform(np.arange(2 * 10**6), 0)))
    assert f.uniform(i, 0) > sps.ndtr(4.5)
    monkeypatch.setattr(special, "_CHUNK", 8)
    with pytest.raises(DomainError):
        omega_grid(f, WeightSpec("loggamma", mu=2e6), i + np.arange(-60, 40), 0)


def test_omega_grid_does_not_enter_the_public_hash(monkeypatch):
    # pool tasks must call the private hash: a tracer wrapping the public
    # names keeps one span stack that worker threads must not touch
    def refuse(*args, **kwargs):
        raise AssertionError("omega_grid entered a public hash")

    want = omega_grid(UniformField(9), WeightSpec("loggamma", mu=2.0), np.arange(300)[:, None], np.arange(500))
    monkeypatch.setattr(UniformField, "uniform", refuse)
    monkeypatch.setattr(environment, "uniform_many", refuse)
    got = omega_grid(UniformField(9), WeightSpec("loggamma", mu=2.0), np.arange(300)[:, None], np.arange(500))
    assert np.array_equal(got, want)
