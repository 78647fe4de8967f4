"""The benchmark's workloads: what each one times and how it is checked.

A workload run is a number of repetitions of one unit of work.  The unit
calls nipoly's public functions on inputs derived from the workload seed;
it is the only timed code.  Outputs are checked afterwards, outside the
timed region, against the independent routes in ``oracles``.  Every
replica, sample or quantile is one operation; it fails if it raises,
returns a non-finite value, misses its oracle tolerance, or could not be
checked.  Failures are counted.  Each workload also has statistical gates,
and a failed gate fails the run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import random
from collections import Counter, defaultdict

import numpy as np
import scipy.special as sps

import oracles
from nipoly import environment, interface, polymer, rmt, shapes

# tolerances of the per-operation checks
LOGZ_RTOL = 1e-12  # log Z against the row-wise DP, relative to max(1, |log Z|)
OMEGA_TOL = 1e-9  # omega(z) against the mpmath quantile of the spec hash
PHI_TOL = 1e-8  # phi(i, j) against tau ratios at 60 digits
EIG_RTOL = 1e-9  # eigenvalues against LAPACK, relative to max(1, spectral radius)
LPP_RTOL = 1e-12  # last passage against the row-wise max-plus DP, relative
QUANTILE_TOL = 1e-9  # MP / semicircle quantiles against quad + brentq
GAP_TOL = 1e-9  # the returned sup gap against the recomputed one

# statistical gates: 4 standard errors (two-sided 6e-5 false alarms per run)
Z_GATE = 4.0
KS_ALPHA = 1e-4


def sub_seed(*parts) -> int:
    """A 63-bit seed from labelled parts; the benchmark's own input stream."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Ops:
    """Tally of operations attempted and failed, failures by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter[str] = Counter()

    def add(self, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            self.kinds[failure] += 1


class Recorder:
    """Keeps the arguments and results of calls to chosen nipoly functions,
    so that outputs that the public entry points aggregate away can still be
    checked one by one after the timed region."""

    def __init__(self, bindings):
        self.bindings = bindings
        self.calls: defaultdict[str, list] = defaultdict(list)

    def watch(self, module: str, name: str) -> None:
        def make(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def probe(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[name].append((sig.bind(*args, **kwargs).arguments, result))
                return result

            return probe

        self.bindings.wrap(module, name, make)

    def take(self) -> dict[str, list]:
        out, self.calls = dict(self.calls), defaultdict(list)
        return out


def _failure_kind(exc: BaseException) -> str:
    return type(exc).__name__


def _spot_sites(seed: int, x: tuple, y: tuple, count: int = 2) -> list[tuple]:
    rng = random.Random(seed)
    inner = [(rng.randint(x[0], y[0]), rng.randint(x[1], y[1])) for _ in range(count)]
    return [x, y] + inner


def _omega_misses(field_seed: int, mu: float, omega: np.ndarray, x: tuple, y: tuple) -> bool:
    """Spot-check a grid of loggamma omegas over the rectangle x..y against
    the mpmath quantile of the uniform field written from its spec."""
    for a, b in _spot_sites(field_seed, x, y):
        ref = oracles.loggamma_omega_ref(mu, float(oracles.uniform_ref(field_seed, a, b)))
        if not abs(omega[a - x[0], b - x[1]] - ref) <= OMEGA_TOL:
            return True
    return False


# ---------------------------------------------------------------------------
# free_energy
# ---------------------------------------------------------------------------


class FreeEnergy:
    """Quenched free energy of the inverse-gamma polymer at N = 1000."""

    name = "free_energy"
    unit_s = 1.6  # seconds per unit at the seed commit (2-core x86-64, 1 BLAS thread)
    N = 1000
    REPLICAS = 2
    MU = 2.0
    # finite-size band: the gap f_inf - E[log Z_N] / N is >= 0 by
    # superadditivity and ~ 2.5 N^(-2/3) (0.020-0.033 at N = 1000)
    BAND_C = 5.0
    WATCH = [("nipoly.polymer", "single_path_logZ")]

    def __init__(self, run_seed: int):
        self.run_seed = run_seed
        self.spec = environment.WeightSpec("loggamma", mu=self.MU)

    def unit(self, rep: int, reps: int, tracer) -> dict:
        seed = sub_seed(self.name, self.run_seed, rep)
        try:
            est = polymer.free_energy_mc(self.spec, 1.0, 1.0, self.N, self.REPLICAS, seed)
        except Exception as exc:  # counted as failed operations
            return {"error": _failure_kind(exc)}
        return {"values": np.asarray(est.values, dtype=float)}

    def check(self, records: list[dict], ops: Ops) -> tuple[dict, dict]:
        values = []
        for rec in records:
            if "error" in rec:
                for _ in range(self.REPLICAS):
                    ops.add(rec["error"])
                continue
            calls = rec["calls"].get("single_path_logZ", [])
            for r, v in enumerate(rec["values"]):
                failure = None
                if not math.isfinite(v):
                    failure = "nonfinite"
                elif r >= len(calls):
                    failure = "unchecked"
                else:
                    failure = self._check_replica(v, *calls[r])
                ops.add(failure)
                if math.isfinite(v):
                    values.append(v)
        limit = float(polymer.sepp_free_energy(self.MU, 1.0))
        gate = {"ok": False, "n": len(values), "limit": limit}
        if len(values) >= 2:
            est = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
            lo = -Z_GATE * se
            hi = self.BAND_C * self.N ** (-2.0 / 3.0) + Z_GATE * se
            gap = limit - est
            gate.update(estimate=est, stderr=se, gap=gap, band=[lo, hi], ok=lo <= gap <= hi)
        return {"free_energy_band": gate}, {}

    def _check_replica(self, value: float, args: dict, result: float) -> str | None:
        field, spec, beta = args["field"], args["spec"], args["beta"]
        x, y = args["x"], args["y"]
        x1 = np.arange(x[0], y[0] + 1)[:, None]
        x2 = np.arange(x[1], y[1] + 1)[None, :]
        omega = environment.omega_grid(field, spec, x1, x2)
        ref = oracles.corner_scan_rows(beta * omega, include_start=args.get("include_start", False))
        if not abs(result - ref) <= LOGZ_RTOL * max(1.0, abs(ref)):
            return "logZ_oracle_miss"
        n = y[0] - x[0] + 1
        if not abs(value - ref / n) <= LOGZ_RTOL * max(1.0, abs(ref / n)):
            return "logZ_oracle_miss"
        if _omega_misses(field.seed, spec.mu, omega, x, y):
            return "environment_miss"
        return None


# ---------------------------------------------------------------------------
# interface
# ---------------------------------------------------------------------------


class Interface:
    """phi from tau ratios at N = 16 (polymer route) and the Metropolis
    chain at N = 8 (Gibbs route)."""

    name = "interface"
    unit_s = 1.4
    N = 16
    MU = 5.0
    REPLICAS = 8  # build_phi calls per unit, fields derive_seed(seed, 0x1F, r)
    GIBBS_N = 8
    SWEEPS = 1500  # sweeps of the one chain of the run consumed per unit
    BURN_IN = 100  # step-size tuning sweeps inside gibbs_sampler
    WATCH: list = []

    def __init__(self, run_seed: int):
        self.run_seed = run_seed
        self.chain = None
        self.chain_error = None

    def unit(self, rep: int, reps: int, tracer) -> dict:
        seed = sub_seed(self.name, self.run_seed, rep)
        phis = []
        for r in range(self.REPLICAS):
            field = environment.UniformField(environment.derive_seed(seed, 0x1F, r))
            try:
                phis.append((field, interface.build_phi(field, self.MU, self.N).values, None))
            except Exception as exc:  # counted as a failed operation
                phis.append((field, None, _failure_kind(exc)))
        diag = np.full((self.SWEEPS, self.GIBBS_N), np.nan)
        if self.chain is None:
            self.chain = interface.gibbs_sampler(
                self.GIBBS_N, self.MU, self.SWEEPS * reps,
                sub_seed(self.name, self.run_seed, "gibbs"), burn_in=self.BURN_IN,
            )
            sweeps = self.SWEEPS + self.BURN_IN
        else:
            sweeps = self.SWEEPS
        if self.chain_error is None:
            try:
                for t in range(self.SWEEPS):
                    diag[t] = next(self.chain).diagonal()
            except Exception as exc:  # a dead chain fails this and later segments
                self.chain_error = _failure_kind(exc)
        if tracer.active:
            tracer.counts["interface.gibbs.updates"] += sweeps * self.GIBBS_N**2
        return {"phis": phis, "diag": diag, "gibbs_error": self.chain_error}

    def check(self, records: list[dict], ops: Ops) -> tuple[dict, dict]:
        spec = environment.WeightSpec("loggamma", mu=self.MU)
        x1 = np.arange(1, self.N + 1)[:, None]
        x2 = np.arange(1, self.N + 1)[None, :]
        for rec in records:
            for field, phi, error in rec["phis"]:
                if error is not None:
                    ops.add(error)
                    continue
                if not np.all(np.isfinite(phi)):
                    ops.add("nonfinite")
                    continue
                omega = environment.omega_grid(field, spec, x1, x2)
                ref = oracles.phi_oracle(omega)
                if not np.max(np.abs(phi - ref)) <= PHI_TOL:
                    ops.add("phi_oracle_miss")
                elif _omega_misses(field.seed, self.MU, omega, (1, 1), (self.N, self.N)):
                    ops.add("environment_miss")
                else:
                    ops.add(None)
            segment_ok = rec["gibbs_error"] is None and np.all(np.isfinite(rec["diag"]))
            ops.add(None if segment_ok else (rec["gibbs_error"] or "nonfinite"))
        diag = np.concatenate([rec["diag"] for rec in records])
        # the first unit's segment is discarded as further burn-in
        kept = diag[self.SWEEPS :]
        target = -self.GIBBS_N**2 * float(sps.digamma(self.MU))
        gate = {"ok": False, "target": target, "sweeps": len(kept)}
        extras = {}
        if len(kept) >= 2 and np.all(np.isfinite(kept)):
            total = kept.sum(axis=1)
            iat = oracles.integrated_autocorrelation(total)
            se = float(total.std(ddof=1) * math.sqrt(iat / len(total)))
            z = (float(total.mean()) - target) / se
            gate.update(mean=float(total.mean()), stderr=se, iat=iat, z=z, ok=abs(z) <= Z_GATE)
            iats = [iat] + [oracles.integrated_autocorrelation(kept[:, i]) for i in range(self.GIBBS_N)]
            extras.update(iat_max=max(iats), sweeps_per_unit=self.SWEEPS)
        return {"gibbs_diagonal_mean": gate}, extras


# ---------------------------------------------------------------------------
# rmt
# ---------------------------------------------------------------------------


class Rmt:
    """Johansson's identity at 12 x 12, and LUE / GUE eigenvalues against
    Marchenko-Pastur and semicircle quantiles."""

    name = "rmt"
    unit_s = 3.4
    JOHANSSON = (12, 12, 1)  # n, m, k
    SAMPLES = 300
    LUE = (8, 4)  # c = 1/2 as in lue_quantile_gap(24, 12), with 4 quantiles in place of 12
    GUE = 60
    WATCH = [
        ("nipoly.shapes", "last_passage_batch"),
        ("nipoly.shapes", "lue_sample_batch"),
        ("nipoly.shapes", "lue_sample"),
        ("nipoly.shapes", "gue_sample"),
        ("nipoly.shapes", "mp_quantile"),
        ("nipoly.shapes", "sc_quantile"),
    ]

    def __init__(self, run_seed: int):
        self.run_seed = run_seed

    def unit(self, rep: int, reps: int, tracer) -> dict:
        out = {}
        n, m, k = self.JOHANSSON
        parts = [
            ("johansson", lambda s: shapes.johansson_check(n, m, k, self.SAMPLES, s)),
            ("lue", lambda s: shapes.lue_quantile_gap(*self.LUE, s)),
            ("gue", lambda s: shapes.gue_quantile_gap(self.GUE, s)),
        ]
        for part, call in parts:
            seed = sub_seed(self.name, self.run_seed, rep, part)
            try:
                out[part] = (seed, call(seed), None)
            except Exception as exc:  # counted as failed operations
                out[part] = (seed, None, _failure_kind(exc))
        return out

    def check(self, records: list[dict], ops: Ops) -> tuple[dict, dict]:
        diffs, ses, lvals, evals, per_call = [], [], [], [], []
        for rec in records:
            calls = rec["calls"]
            self._check_johansson(rec["johansson"], calls, ops, lvals, evals, diffs, ses)
            if rec["johansson"][1] is not None:
                res = rec["johansson"][1]
                per_call.append({"z": res["zscore"], "ok_means": bool(res["ok_means"]), "ks": res["ks"]})
            self._check_gap(rec["lue"], calls, ops, "lue")
            self._check_gap(rec["gue"], calls, ops, "gue")
        gates = {}
        mean_gate = {"ok": False, "calls": per_call}
        if diffs:
            diff = float(np.mean(diffs))
            se = math.sqrt(sum(s * s for s in ses)) / len(ses)
            mean_gate.update(diff=diff, stderr=se, z=diff / se, ok=abs(diff) <= Z_GATE * se)
        gates["johansson_means"] = mean_gate
        ks_gate = {"ok": False}
        if lvals and evals:
            a, b = np.concatenate(lvals), np.concatenate(evals)
            ks = oracles.ks_two_sample(a, b)
            crit = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) * math.sqrt((len(a) + len(b)) / (len(a) * len(b)))
            ks_gate.update(ks=ks, threshold=crit, n=len(a), ok=ks <= crit)
        gates["johansson_ks"] = ks_gate
        return gates, {}

    def _check_johansson(self, part, calls, ops, lvals, evals, diffs, ses):
        seed, res, error = part
        if error is not None:
            for _ in range(self.SAMPLES):
                ops.add(error)
            return
        n, m, k = self.JOHANSSON
        lpb = calls.get("last_passage_batch", [])
        lsb = calls.get("lue_sample_batch", [])
        lpp_fail = eig_fail = ["unchecked"] * self.SAMPLES
        if len(lpb) == 1:
            args, got = lpb[0]
            seeds = np.asarray(args["seeds"])[:, None, None]
            x1 = np.arange(1, args["n"] + 1)[None, :, None]
            x2 = np.arange(1, args["m"] + 1)[None, None, :]
            u = oracles.uniform_ref(seeds, x1, x2)
            ref = oracles.corner_scan_rows(-np.log1p(-u), tropical=True, include_start=True)
            got = np.asarray(got, dtype=float)
            if got.shape == ref.shape == (self.SAMPLES,):
                ok = np.abs(got - ref) <= LPP_RTOL * np.maximum(1.0, np.abs(ref))
                lpp_fail = [None if o else "lpp_oracle_miss" for o in ok]
                lvals.append(got)
        if len(lsb) == 1:
            args, got = lsb[0]
            ref = oracles.eigvalsh_desc(rmt.lue_matrix_batch(args["n"], args["m"], args["seeds"]))
            got = np.asarray(got, dtype=float)
            if got.shape == ref.shape and got.shape[0] == self.SAMPLES:
                scale = np.maximum(1.0, np.abs(ref).max(axis=1))
                ok = np.abs(got - ref).max(axis=1) <= EIG_RTOL * scale
                eig_fail = [None if o else "eig_oracle_miss" for o in ok]
                evals.append(got[:, :k].sum(axis=1))
        for lpp, eig in zip(lpp_fail, eig_fail):
            ops.add(lpp or eig)
        diffs.append(res["mean_L"] - res["mean_eigsum"])
        ses.append(math.hypot(res["stderr_L"], res["stderr_eigsum"]))

    def _check_gap(self, part, calls, ops, which):
        seed, gap, error = part
        if which == "lue":
            n, m = self.LUE
            size, lo = m, int(0.05 * m)  # lue_quantile_gap's central = 0.9
            sample_calls, q_calls = calls.get("lue_sample", []), calls.get("mp_quantile", [])
            q_ref = lambda i: oracles.mp_quantile_ref(m / n, (m / n) * (i + 0.5) / m)
            matrix = lambda: rmt.lue_matrix(n, m, seed)
            scale = n
        else:
            n = self.GUE
            size, lo = n, 0
            sample_calls, q_calls = calls.get("gue_sample", []), calls.get("sc_quantile", [])
            q_ref = lambda i: oracles.sc_quantile_ref((i + 0.5) / n)
            matrix = lambda: rmt.gue_matrix(n, seed)
            scale = math.sqrt(n)
        expected = size - 2 * lo
        if error is not None:
            for _ in range(expected + 1):
                ops.add(error)
            return
        # one operation per quantile
        for args, q in q_calls[:expected]:
            if which == "lue":
                ref = oracles.mp_quantile_ref(args["c"], args["alpha"])
            else:
                ref = oracles.sc_quantile_ref(args["x"])
            ok = math.isfinite(q) and abs(q - ref) <= QUANTILE_TOL
            ops.add(None if ok else ("mp" if which == "lue" else "sc") + "_oracle_miss")
        for _ in range(expected - min(expected, len(q_calls))):
            ops.add("unchecked")
        # one operation for the sample: its eigenvalues and the returned gap
        eig_ref = oracles.eigvalsh_desc(matrix())
        failure = None
        if len(sample_calls) != 1:
            failure = "unchecked"
        else:
            got = np.asarray(sample_calls[0][1], dtype=float)
            tol = EIG_RTOL * max(1.0, float(np.abs(eig_ref).max()))
            if got.shape != eig_ref.shape or not np.abs(got - eig_ref).max() <= tol:
                failure = "eig_oracle_miss"
            else:
                gap_ref = max(abs(eig_ref[i] / scale - q_ref(i)) for i in range(lo, size - lo))
                if not (math.isfinite(gap) and abs(gap - gap_ref) <= GAP_TOL):
                    failure = "gap_oracle_miss"
        ops.add(failure)


WORKLOADS = {w.name: w for w in (FreeEnergy, Interface, Rmt)}


def warm_up() -> None:
    """One tiny call into each layer, so first-call costs land in set-up."""
    spec = environment.WeightSpec("loggamma", mu=2.0)
    polymer.free_energy_mc(spec, 1.0, 1.0, 8, 2, 1)
    interface.build_phi(environment.UniformField(1), 5.0, 3)
    for _ in interface.gibbs_sampler(2, 5.0, 2, 1, burn_in=1):
        pass
    shapes.johansson_check(3, 3, 1, 4, 1)
    shapes.mp_mass_above(0.5, 1.0)
    shapes.sc_quantile(0.3)
    rmt.gue_sample(3, 1)
