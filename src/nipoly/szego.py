"""Toeplitz symbols from path geometry and strong Szego asymptotics.

The infinite-temperature partition function of k stacked paths is a k x k
Toeplitz determinant whose symbol a(s) = sum d_m s^m has binomial
coefficients.  Its Wiener-Hopf factorization a(s) = lead s^lo prod (s - r)
(Boettcher-Silbermann 1999), with the roots r_in inside and r_out outside
the circle, gives the winding number lo + #r_in and, when that is zero,
the large-k rate c_0 = log(lead prod(-r_out)), the log-coefficients
c_m = -sum r_out^(-m)/m and c_(-m) = -sum r_in^m/m, and the strong Szego
constant E = exp(sum m c_m c_{-m}) = prod 1/(1 - r_in/r_out).  The checks
are the Toeplitz minors D_k themselves, exact integer Bareiss eliminations
of the float coefficients taken as dyadic rationals, and the Fourier
reconstruction of a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionLossError, ZeroOnCircleError
from .lattice import Point, leading_minors
from .logspace import LogSigned

# |a| at or below ZERO_TOL max|d_m| counts as a zero on the circle
ZERO_TOL = 1e-12
# c_m and E are refused when rounding the coefficients can move log a on the
# circle by more than LOG_TOL, i.e. when eps sum|d_m| / min|a| exceeds it
LOG_TOL = 1e-10


@dataclass(frozen=True)
class Symbol:
    """Finitely supported Laurent series sum_m d_m s^m on the unit circle."""

    coeffs: dict[int, float]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {m: float(d) for m, d in self.coeffs.items() if d != 0.0}
        )

    def d(self, m: int) -> float:
        return self.coeffs.get(m, 0.0)

    def support(self) -> tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        ms = sorted(self.coeffs)
        return ms[0], ms[-1]

    def wiener_norm(self) -> float:
        return sum(abs(d) for d in self.coeffs.values())

    def eval_circle(self, t: np.ndarray) -> np.ndarray:
        """a(e^{it}) for an array of angles t."""
        vals = np.zeros_like(t, dtype=complex)
        for m, d in self.coeffs.items():
            vals += d * np.exp(1j * m * np.asarray(t))
        return vals

    def scaled(self, factor: float) -> "Symbol":
        return Symbol({m: factor * d for m, d in self.coeffs.items()})


def symbol_from_geometry(z: Point, h: Point) -> Symbol:
    """Symbol of the stacked-path family with displacement z and stacking
    direction h: the m-th coefficient counts the paths from the origin to
    z - m h.

    For z = (3,2), h = (-2,2) this is 5/s + 10 + s, matching the worked
    values; the support is finite whenever h1 < 0 < h2.
    """
    if not (h[0] < 0 < h[1]):
        raise DomainError("stacking direction must have h1 < 0 < h2")
    coeffs: dict[int, float] = {}
    # paths(0 -> z - m h) needs both coordinates nonnegative
    # z1 + m|h1| >= 0 and z2 - m h2 >= 0 bound the support
    m_lo = -(z[0] // (-h[0])) - 1
    m_hi = z[1] // h[1] + 1
    for m in range(m_lo - 1, m_hi + 2):
        a, b = z[0] - m * h[0], z[1] - m * h[1]
        if a >= 0 and b >= 0:
            coeffs[m] = float(math.comb(a + b, a))
    return Symbol(coeffs)


def _wiener_hopf(sym: Symbol) -> tuple[int, float, np.ndarray, np.ndarray]:
    """(lo, lead, r_in, r_out) with a(s) = lead s^lo prod (s - r), the roots
    split at the unit circle; ZeroOnCircleError when |a(e^{i arg r})| <=
    ZERO_TOL max|d_m| for some root."""
    if not sym.coeffs:
        raise ZeroOnCircleError("zero symbol")
    lo, hi = sym.support()
    roots = np.roots([sym.d(m) for m in range(hi, lo - 1, -1)])
    scale = max(abs(d) for d in sym.coeffs.values())
    if np.any(np.abs(sym.eval_circle(np.angle(roots))) <= ZERO_TOL * scale):
        raise ZeroOnCircleError("symbol vanishes on the unit circle")
    inside = np.abs(roots) < 1.0
    return lo, sym.d(hi), roots[inside], roots[~inside]


def winding_number(sym: Symbol) -> int:
    """Net phase turns of a(e^{it}): lo plus the number of roots inside the
    circle, by the argument principle."""
    lo, _, r_in, _ = _wiener_hopf(sym)
    return lo + len(r_in)


def _winding_zero_factors(sym: Symbol) -> tuple[float, np.ndarray, np.ndarray]:
    """(c_0, r_in, r_out) of a symbol with winding number zero, where
    a(s) = lead prod(-r_out) prod(1 - r_in/s) prod(1 - s/r_out)."""
    lo, lead, r_in, r_out = _wiener_hopf(sym)
    if lo + len(r_in) != 0:
        raise DomainError("log a(e^{it}) requires winding number zero")
    # |a| is smallest near the circle points arg(r)
    norm = sym.wiener_norm()
    a_min = np.abs(sym.eval_circle(np.angle(np.concatenate([r_in, r_out])))).min(initial=norm)
    if np.finfo(float).eps * norm > LOG_TOL * a_min:
        raise PrecisionLossError(
            "log a(e^{it}) is ill-conditioned: sum|d_m| / min|a| = %.3g" % (norm / a_min)
        )
    # real coefficients pair the roots, so the constant is real; its sign is a(1)'s
    if not (lead * np.prod(-r_out / np.abs(r_out))).real > 0.0:
        raise DomainError("log a(e^{it}) is not real: a(1) < 0")
    return math.log(abs(lead)) + float(np.log(np.abs(r_out)).sum()), r_in, r_out


_LOG_COEFF_M = 64  # log_coefficients returns c_m for |m| <= 64
_RECONSTRUCT_GRID = 512  # circle points of reconstruct_symbol_residual


def log_coefficients(sym: Symbol) -> dict[int, float]:
    """Fourier coefficients c_m of log a(e^{it}) for |m| <= 64 (winding zero)."""
    c0, r_in, r_out = _winding_zero_factors(sym)
    m = np.arange(1, _LOG_COEFF_M + 1)
    c_pos = -(r_out[None, :] ** -m[:, None]).sum(axis=1).real / m
    c_neg = -(r_in[None, :] ** m[:, None]).sum(axis=1).real / m
    c = {0: c0}
    c.update(zip(m.tolist(), c_pos.tolist()))
    c.update(zip((-m).tolist(), c_neg.tolist()))
    return c


def _szego_constant(r_in: np.ndarray, r_out: np.ndarray) -> float:
    return float(np.prod(1.0 / (1.0 - np.outer(r_in, 1.0 / r_out))).real)


def strong_szego_constant(sym: Symbol) -> float:
    """exp(sum_{m>=1} m c_m c_{-m}) = prod 1/(1 - r_in/r_out) over all pairs
    of an inside and an outside root."""
    _, r_in, r_out = _winding_zero_factors(sym)
    return _szego_constant(r_in, r_out)


def _toeplitz_minors(sym: Symbol, k: int) -> list[LogSigned]:
    """D_1 .. D_k, the leading minors of (d_{j-i}), without rounding: each
    float d_m is the dyadic rational n_m / 2^e, the integer matrix
    2^e (d_{j-i}) goes through one Bareiss elimination, and only the final
    log of each minor rounds."""
    if k < 1:
        raise DomainError("k >= 1 required")
    ratios = {m: d.as_integer_ratio() for m, d in sym.coeffs.items()}
    e = max((q.bit_length() - 1 for _, q in ratios.values()), default=0)
    ints = {m: p << (e - (q.bit_length() - 1)) for m, (p, q) in ratios.items()}
    rows = [[ints.get(j - i, 0) for j in range(k)] for i in range(k)]
    out = []
    for size, minor in enumerate(leading_minors(rows), start=1):
        if minor == 0:
            out.append(LogSigned.zero())
            continue
        # D_k = f 2^(b - k e) with f = |minor| / 2^b in [1/2, 1): the log then
        # rounds like log D_k itself, whatever the scale 2^(k e)
        b = abs(minor).bit_length()
        f = math.ldexp(float(abs(minor) >> max(b - 64, 0)), -min(b, 64))
        log_mag = math.log(f) + (b - size * e) * math.log(2.0)
        out.append(LogSigned(1 if minor > 0 else -1, log_mag))
    return out


def toeplitz_det(sym: Symbol, k: int) -> LogSigned:
    """The determinant of (d_{j-i})_{i,j=1..k}, exact up to its final log."""
    return _toeplitz_minors(sym, k)[-1]


def many_paths_rate(z: Point, h: Point, k_max: int) -> dict:
    """Per-k diagnostics of the Szego limit: (1/k) log D_k against c_0 and
    D_k e^{-k c_0} against the strong Szego constant, plus the parallel
    bound ceiling log d_0.  All D_k come from one exact elimination."""
    sym = symbol_from_geometry(z, h)
    c0, r_in, r_out = _winding_zero_factors(sym)
    e_const = _szego_constant(r_in, r_out)
    ks = list(range(1, k_max + 1))
    log_dk = []
    rate = []
    scaled = []
    for k, det in zip(ks, _toeplitz_minors(sym, k_max)):
        if det.sign != 1:
            raise DomainError("Toeplitz determinant lost positivity at k=%d" % k)
        log_dk.append(det.logmag)
        rate.append(det.logmag / k)
        scaled.append(math.exp(det.logmag - k * c0))
    return {
        "k": ks,
        "log_Dk": log_dk,
        "rate": rate,
        "scaled": scaled,
        "c0": c0,
        "strong_szego": e_const,
        "ceiling": math.log(sym.d(0)),
    }


def reconstruct_symbol_residual(sym: Symbol) -> float:
    """Pointwise residual of exp(sum c_m s^m) against a(e^{it}); Fourier
    inversion sanity for the log-coefficient pipeline."""
    c = log_coefficients(sym)
    t = 2.0 * np.pi * np.arange(_RECONSTRUCT_GRID) / _RECONSTRUCT_GRID
    log_rec = np.zeros_like(t, dtype=complex)
    for m, cm in c.items():
        log_rec += cm * np.exp(1j * m * t)
    rec = np.exp(log_rec)
    return float(np.max(np.abs(rec - sym.eval_circle(t))))
