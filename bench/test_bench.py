"""Pins for the benchmark's own oracles and tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincc

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nipoly import environment, polymer, shapes  # noqa: E402
from nipoly.environment import UniformField, WeightSpec  # noqa: E402
from nipoly.lattice import stack_down, stack_up  # noqa: E402

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _omega(field, mu, n):
    x = np.arange(1, n + 1)
    return environment.omega_grid(field, WeightSpec("loggamma", mu=mu), x[:, None], x[None, :])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_oracle_matches_brute_force_tau(n):
    mu = 3.0
    field = UniformField(100 + n)
    phi = workloads.oracles.phi_oracle(_omega(field, mu, n))
    spec = WeightSpec("loggamma", mu=mu)
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            # partial sums of phi invert the tau ratios
            above = sum(phi[i - 1, n - m + i - 1] for i in range(1, k + 1))
            bf = polymer.brute_force_kpath_logZ(
                field, spec, 1.0, stack_up((1, 1), k), stack_down((n, m), k), include_start=True
            )
            assert above == pytest.approx(bf, abs=1e-10)
            below = sum(phi[n - m + j - 1, j - 1] for j in range(1, k + 1))
            bf_t = polymer.brute_force_kpath_logZ(
                field, spec, 1.0, stack_up((1, 1), k), stack_down((m, n), k), include_start=True
            )
            assert below == pytest.approx(bf_t, abs=1e-10)


def test_phi_oracle_is_converged_in_precision():
    omega = _omega(UniformField(7), 5.0, 16)
    np.testing.assert_allclose(oracles.phi_oracle(omega, 60), oracles.phi_oracle(omega, 100), atol=1e-13)


def _mp_cdf_closed(c, x):
    # antiderivative of sqrt((b-u)(u-a)) / u on [a, b], a > 0
    a, b = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2

    def g(u):
        # asin written as atan2 with the factored cosine, exact near +-1
        q = math.sqrt(max((b - u) * (u - a), 0.0))
        t1 = math.atan2(2 * u - a - b, 2 * q)
        t2 = math.atan2((a + b) * u - 2 * a * b, 2 * math.sqrt(a * b) * q)
        return q + 0.5 * (a + b) * t1 - math.sqrt(a * b) * t2

    return (g(x) - g(a)) / (2 * math.pi * c)


@pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("frac", [0.02, 0.3, 0.5, 0.77, 0.98])
def test_mp_quantile_oracle_against_closed_cdf(c, frac):
    assert _mp_cdf_closed(c, (1 + math.sqrt(c)) ** 2) == pytest.approx(1.0, abs=1e-14)
    q = oracles.mp_quantile_ref(c, frac * c)
    assert 1.0 - _mp_cdf_closed(c, q) == pytest.approx(frac, abs=1e-11)
    assert oracles.mp_mass_above_ref(c, q) == pytest.approx(frac, abs=1e-11)


@pytest.mark.parametrize("x", [0.001, 0.2, 0.5, 0.8, 0.999])
def test_sc_quantile_oracle_against_closed_cdf(x):
    rho = oracles.sc_quantile_ref(x)
    phi = math.asin(rho / 2)
    cdf = 0.5 + phi / math.pi + math.sin(phi) * math.cos(phi) / math.pi
    assert 1.0 - cdf == pytest.approx(x, abs=1e-12)


def _brute_corner(logw, combine):
    w, h = logw.shape
    totals = []
    for east in itertools.combinations(range(w + h - 2), w - 1):
        a = b = 0
        total = 0.0
        for step in range(w + h - 2):
            if step in east:
                a += 1
            else:
                b += 1
            total += logw[a, b]
        totals.append(total)
    return combine(totals)


def test_scans_against_brute_force_4x4():
    logw = np.random.default_rng(3).normal(size=(4, 4))
    logsum = lambda t: float(np.logaddexp.reduce(t))
    bf = _brute_corner(logw, logsum)
    assert float(polymer.scan_rectangle(logw)) == pytest.approx(bf, abs=1e-12)
    assert float(oracles.corner_scan_rows(logw)) == pytest.approx(bf, abs=1e-12)
    bf_max = _brute_corner(logw, max) + logw[0, 0]
    assert float(polymer.scan_rectangle(logw, np.maximum, True)) == pytest.approx(bf_max, abs=1e-12)
    assert float(oracles.corner_scan_rows(logw, True, True)) == pytest.approx(bf_max, abs=1e-12)


def test_scans_against_logZ_grid_64x64():
    logw = _omega(UniformField(9), 2.0, 64)
    full = polymer.logZ_grid(logw)[-1, -1]
    assert float(polymer.scan_rectangle(logw)) == pytest.approx(full, abs=1e-10)
    assert float(oracles.corner_scan_rows(logw)) == pytest.approx(full, abs=1e-10)


def test_uniform_and_omega_references():
    field = UniformField(2**63 + 12345)
    x1, x2 = np.arange(-3, 4)[:, None], np.arange(0, 5)[None, :]
    np.testing.assert_array_equal(field.uniform(x1, x2), oracles.uniform_ref(field.seed, x1, x2))
    seeds = np.array([5, 6])[:, None, None]
    a, b = np.arange(1, 4)[None, :, None], np.arange(1, 3)[None, None, :]
    np.testing.assert_array_equal(environment.uniform_many(seeds, a, b), oracles.uniform_ref(seeds, a, b))
    for u in (1e-15, 0.3, 1 - 2**-40):
        y = math.exp(-oracles.loggamma_omega_ref(2.0, u))
        assert gammaincc(2.0, y) == pytest.approx(u, rel=1e-12)
    omega = environment.omega_grid(field, WeightSpec("loggamma", mu=2.0), 3, 4)
    assert float(omega) == pytest.approx(
        oracles.loggamma_omega_ref(2.0, float(oracles.uniform_ref(field.seed, 3, 4))), abs=1e-12
    )


def test_iat_of_ar1():
    rng = np.random.default_rng(0)
    rho, n = 0.9, 200_000
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.normal(size=n)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    assert oracles.integrated_autocorrelation(x) == pytest.approx((1 + rho) / (1 - rho), rel=0.1)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.active = True

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0

    def gen():
        clock.now += 0.5
        yield 1
        clock.now += 0.5
        yield 2

    traced_leaf = spans.span_wrapper(tracer, "leaf", leaf)
    traced_middle = spans.span_wrapper(tracer, "middle", middle)
    traced_gen = spans.span_wrapper(tracer, "gen", gen)
    top = tracer.open("driver")
    clock.now += 2.0
    traced_middle()  # 3 s, of which leaf 1 s
    traced_leaf()  # 1 s
    for _ in traced_gen():
        clock.now += 0.25  # consumer time belongs to the driver
    tracer.close(top)
    assert clock.now == pytest.approx(7.5)
    self_s = tracer.self_times()
    assert self_s["leaf"] == pytest.approx(2.0)
    assert self_s["middle"] == pytest.approx(2.0)
    assert self_s["gen"] == pytest.approx(1.0)
    assert self_s["driver"] == pytest.approx(2.5)
    assert sum(self_s.values()) == pytest.approx(7.5)
    assert [s[3] for s in tracer.spans if s[0] == "gen"] == [0, 0, 0]


def test_inactive_tracer_records_nothing():
    tracer = spans.Tracer()
    wrapped = spans.span_wrapper(tracer, "x", lambda: 3)
    assert wrapped() == 3 and tracer.spans == []


def test_bindings_reach_every_import_site():
    original = environment.omega_grid
    sites = ("environment", "polymer", "shapes")
    bindings = spans.Bindings()
    tracer = spans.Tracer()
    replaced = spans.install(tracer, bindings)
    try:
        assert replaced["nipoly.environment:omega_grid"] >= 3
        for name in sites:
            assert getattr(sys.modules["nipoly." + name], "omega_grid") is not original
        assert all(count >= 1 for count in replaced.values()), replaced
    finally:
        bindings.restore()
    for name in sites:
        assert getattr(sys.modules["nipoly." + name], "omega_grid") is original


# ---------------------------------------------------------------------------
# every named layer is seen on its heavy workload (reduced sizes)
# ---------------------------------------------------------------------------


class SmallFreeEnergy(workloads.FreeEnergy):
    N = 40
    REPLICAS = 2
    BAND_C = 50.0


class SmallInterface(workloads.Interface):
    N = 5
    REPLICAS = 2
    GIBBS_N = 3
    SWEEPS = 40
    BURN_IN = 10


class SmallRmt(workloads.Rmt):
    JOHANSSON = (4, 4, 1)
    SAMPLES = 30
    LUE = (8, 4)
    GUE = 6


def _traced_run(cls, reps=2):
    bindings = spans.Bindings()
    recorder = workloads.Recorder(bindings)
    for module, name in cls.WATCH:
        recorder.watch(module, name)
    tracer = spans.Tracer()
    spans.install(tracer, bindings)
    wl = cls(11)
    records = []
    try:
        for rep in range(reps):
            tracer.active = True
            top = tracer.open("driver")
            rec = wl.unit(rep, reps, tracer)
            tracer.close(top)
            tracer.active = False
            rec["calls"] = recorder.take()
            records.append(rec)
    finally:
        bindings.restore()
    ops = workloads.Ops()
    gates, _ = wl.check(records, ops)
    return tracer, ops, gates


HEAVY = {
    SmallFreeEnergy: ["environment", "polymer.scan", "driver"],
    SmallInterface: ["polymer.logZ_grid", "polymer.tau", "logspace.logdet", "interface.gibbs", "driver"],
    SmallRmt: ["rmt.eig", "rmt.sample", "shapes.mp_quantile", "shapes.sc_quantile", "environment",
               "polymer.scan", "driver"],
}


@pytest.mark.parametrize("cls", list(HEAVY), ids=lambda c: c.name)
def test_each_layer_records_spans_on_its_heavy_workload(cls):
    tracer, ops, _ = _traced_run(cls)
    names = {s[0] for s in tracer.spans}
    self_s = tracer.self_times()
    for layer in HEAVY[cls]:
        assert layer in names, layer
        assert self_s[layer] > 0.0, layer
    assert ops.attempted > 0
    assert ops.failed == 0, dict(ops.kinds)
    if cls is SmallRmt:
        assert tracer.counts["shapes.mp_mass_above.calls"] > 0
        assert tracer.counts["rmt.eig.n3"] > 0


def test_oracle_catches_a_wrong_quantile(monkeypatch):
    real = shapes.mp_quantile
    monkeypatch.setattr(shapes, "mp_quantile", lambda c, alpha: real(c, alpha) + 1e-6)
    _, ops, _ = _traced_run(SmallRmt, reps=1)
    assert ops.kinds["mp_oracle_miss"] == SmallRmt.LUE[1]
