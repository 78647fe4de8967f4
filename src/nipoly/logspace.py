"""Signed log-space arithmetic.

Partition functions and Toeplitz/LGV determinants overflow ordinary floats
long before the sizes of interest, so every such quantity is carried as a
(sign, log magnitude) pair.  All operations here are pure.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple, Sequence

from .errors import PrecisionLossWarning

# Nats of cancellation beyond which a subtraction is flagged as lossy.
CANCEL_WARN_NATS = 30.0


class LogSigned(NamedTuple):
    """A real number stored as sign in {-1, 0, +1} and log of absolute value.

    sign == 0 represents exactly zero; logmag is ignored in that case.
    """

    sign: int
    logmag: float

    @staticmethod
    def zero() -> "LogSigned":
        return LogSigned(0, -math.inf)

    @staticmethod
    def one() -> "LogSigned":
        return LogSigned(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogSigned":
        if x == 0.0:
            return LogSigned.zero()
        return LogSigned(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logmag)

    def __mul__(self, other: "LogSigned") -> "LogSigned":  # type: ignore[override]
        if self.sign == 0 or other.sign == 0:
            return LogSigned.zero()
        return LogSigned(self.sign * other.sign, self.logmag + other.logmag)

    def __truediv__(self, other: "LogSigned") -> "LogSigned":
        if other.sign == 0:
            raise ZeroDivisionError("division by log-space zero")
        if self.sign == 0:
            return LogSigned.zero()
        return LogSigned(self.sign * other.sign, self.logmag - other.logmag)

    def __neg__(self) -> "LogSigned":
        return LogSigned(-self.sign, self.logmag)

    def __add__(self, other: "LogSigned") -> "LogSigned":  # type: ignore[override]
        return logsum(self, other)

    def __sub__(self, other: "LogSigned") -> "LogSigned":
        return logsum(self, -other)


def logsum(a: LogSigned, b: LogSigned) -> LogSigned:
    """Add two signed log-space numbers by max-factoring.

    Same-sign addition is logaddexp; opposite signs subtract, and a result
    whose magnitude drops more than CANCEL_WARN_NATS below the operands
    triggers a PrecisionLossWarning.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.logmag >= b.logmag:
        big, small = a, b
    else:
        big, small = b, a
    d = small.logmag - big.logmag  # <= 0
    if a.sign == b.sign:
        return LogSigned(big.sign, big.logmag + math.log1p(math.exp(d)))
    if d == 0.0:
        return LogSigned.zero()
    # log(1 - e^d): for d within an ulp of 0, exp(d) rounds to 1 and
    # log1p(-1) is a domain error, while expm1 keeps the difference exact
    if d > -math.log(2.0):
        log1m = math.log(-math.expm1(d))
    else:
        log1m = math.log1p(-math.exp(d))
    out = LogSigned(big.sign, big.logmag + log1m)
    if big.logmag - out.logmag > CANCEL_WARN_NATS:
        warnings.warn(
            "log-space subtraction cancelled %.1f nats" % (big.logmag - out.logmag),
            PrecisionLossWarning,
            stacklevel=2,
        )
    return out


def logsum_iter(terms: Iterable[LogSigned]) -> LogSigned:
    acc = LogSigned.zero()
    for t in terms:
        acc = logsum(acc, t)
    return acc


def logdet(matrix: Sequence[Sequence[LogSigned]]) -> LogSigned:
    """Determinant of a square LogSigned matrix, entirely in log space.

    Doolittle elimination with partial pivoting on log magnitude; the sign
    is tracked exactly through the permutation parity and pivot signs.
    The empty matrix has determinant 1 by convention.
    """
    n = len(matrix)
    if n == 0:
        return LogSigned.one()
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("logdet requires a square matrix")
    parity = 1
    det = LogSigned.one()
    for k in range(n):
        piv = max(range(k, n), key=lambda r: a[r][k].logmag if a[r][k].sign != 0 else -math.inf)
        if a[piv][k].sign == 0:
            return LogSigned.zero()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            parity = -parity
        pivot = a[k][k]
        det = det * pivot
        for r in range(k + 1, n):
            if a[r][k].sign == 0:
                continue
            factor = a[r][k] / pivot
            for c in range(k + 1, n):
                a[r][c] = logsum(a[r][c], -(factor * a[k][c]))
            a[r][k] = LogSigned.zero()
    if parity < 0:
        det = -det
    return det
