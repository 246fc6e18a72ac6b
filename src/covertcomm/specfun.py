"""Real-valued special functions for the detection and rate closed forms.

Provides the regularized incomplete gamma pair P/Q (read from
scipy.special and returned as an exact complement pair), the Kummer and
Tricomi confluent hypergeometric functions, and the scaled exponential
integral e^x E1(x) (scipy.special.exp1 below x = 700, an asymptotic sum
from there on), restricted to the real parameter ranges the wideband
energy-detection model actually visits.

Gamma-function factors run in log space: U(a, b, z) and Gamma(a)
overflow doubles at the parameters a high-power miss series visits, so
log_tricomi_u integrates relative to the integrand's peak, by one
trapezoid rule in log t, and returns a logarithm. It serves the a its
callers pass (a = 0, or a >= 0.5) and raises ConvergenceError where the
integrand's left tail is longer than its walk (a below about 6e-4).
Each routine here is checked against mpmath in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .params import _integer

# The U integrand is cut where its log falls this far below the peak
_U_DROP = 40.0
_U_REACH_MAX = 2**16  # steps of the level-0 grid on either side of the peak
_U_LEVEL_MAX = 8
_U_REL_TOL = 1e-9
# the share of the integral that the left tail past the reach may hold
_U_LEFT_TOL = 1e-12


class ConvergenceError(ArithmeticError):
    """A series or quadrature stopped before reaching its tolerance.

    Carries the partial result and the number of terms spent so callers
    can decide whether the partial value is still usable.
    """

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the infinite-series evaluations."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "max_terms", _integer("max_terms", self.max_terms))
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")


DEFAULT_SERIES_CONTROL = SeriesControl()


def _reg_gamma_pair(s: float, x: float) -> tuple[float, float]:
    # Returns (P, Q) with P + Q = 1 exactly: only the member that does not
    # suffer cancellation is read from scipy, the other is its complement,
    # so the pair can never drift apart. scipy returns nan for the inputs
    # rejected here; this raises instead.
    if not s > 0.0:
        raise ValueError(f"incomplete gamma requires s > 0, got {s!r}")
    if not x >= 0.0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")
    if x < s + 1.0:
        p = float(special.gammainc(s, x))
        return p, 1.0 - p
    q = float(special.gammaincc(s, x))
    return 1.0 - q, q


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), the Gamma(s, 1) CDF."""
    return _reg_gamma_pair(s, x)[0]


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x)."""
    return _reg_gamma_pair(s, x)[1]


def kummer_1f1(a: float, b: float, z: float, ctl: SeriesControl | None = None) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) by its power series.

    The term recurrence t_{n+1} = t_n * (a+n) z / ((b+n)(n+1)) avoids
    forming Pochhammer symbols or factorials explicitly. b must not be
    zero or a negative integer (poles of the series).
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"1F1 undefined for b a non-positive integer, got b={b!r}")
    ctl = ctl or DEFAULT_SERIES_CONTROL
    term = 1.0
    total = 1.0
    for n in range(ctl.max_terms):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        total += term
        if abs(term) <= ctl.rel_tol * abs(total):
            return total
    raise ConvergenceError(
        f"1F1 series did not converge for a={a}, b={b}, z={z}",
        partial=total,
        terms=ctl.max_terms,
    )


def log_tricomi_u(a: float, b: float, z: float) -> float:
    """log of the Tricomi confluent hypergeometric function U(a, b, z).

    Uses the integral representation (DLMF 13.4.4)

        U(a, b, z) = (1 / Gamma(a)) * int_0^inf t^(a-1) (1+t)^(b-a-1) e^(-zt) dt

    valid for a > 0, z > 0 and any real b. With t = e^s the log integrand
    psi(s) = a s + (b-a-1) log(1+e^s) - z e^s is analytic and unimodal,
    and decays exponentially to the left and doubly exponentially to the
    right, so the trapezoid rule on the grids s* + j h 2^-level around its
    peak s* converges exponentially. The step is halved until two grids
    agree to _U_REL_TOL, else ConvergenceError carries the last estimate.
    The walk reaches the integrand at every a >= 0.5 the model passes,
    and at most a down to about 6e-4. Where the left tail, in which
    psi(s) is a s plus a constant, is longer than the reach cap, as at
    most a below that, ConvergenceError is raised before the sum starts.
    psi is taken relative to its peak value, so the result stays finite
    even when U itself would overflow or underflow a double.
    """
    for name, v in (("a", a), ("b", b), ("z", z)):
        if not math.isfinite(v):
            raise ValueError(f"tricomi U requires a finite {name}, got {v!r}")
    if a == 0.0:
        return 0.0  # U(0, b, z) = 1: the defining series terminates at n = 0
    if not a > 0.0:
        raise ValueError(f"tricomi U integral form requires a >= 0, got {a!r}")
    if not z > 0.0:
        raise ValueError(f"tricomi U requires z > 0, got {z!r}")

    # the peak t* = e^s* is the positive root of z t^2 + (z+1-b) t - a = 0;
    # its discriminant is taken as a hypot so that a huge z cannot overflow
    c = b - a - 1.0
    lin = z + 1.0 - b
    root = math.hypot(lin, 2.0 * math.sqrt(a) * math.sqrt(z))
    if lin > 0.0:
        s_pk = math.log(2.0 * a) - math.log(lin + root)
    else:
        s_pk = math.log(root - lin) - math.log(2.0 * z)
    # u = t*/(1+t*) and -psi''(s*) = a + c u^2 > 0; z t* = a + c u is
    # bounded, but that sum cancels for b near 1 and large t*
    log_1mu = -float(np.logaddexp(0.0, s_pk))
    log_u = -float(np.logaddexp(0.0, -s_pk))
    u = math.exp(log_u)
    zt = math.exp(math.log(z) + s_pk)
    # the step starts at the peak width, but at most 1: (1+e^s)^c can be
    # singular at Im s = pi, so the rule's error is about e^(-2 pi^2 / h)
    # whatever the width, and a wider step only adds levels
    width = 1.0 / math.sqrt(max(a + c * u * u, 1.0))

    def psi(d):
        # psi(s* + d) - psi(s*)
        return a * d + c * np.logaddexp(log_1mu, log_u + d) - zt * np.expm1(d)

    # psi is unimodal: double each reach until psi is _U_DROP below the peak
    lo = hi = 1
    while psi(-lo * width) > -_U_DROP and lo <= _U_REACH_MAX:
        lo *= 2
    # the left tail decays only like e^(a s), about _U_DROP / a long. It
    # passes the reach cap for a below about 6e-4; and for a tiny a, the
    # tail past the reach, e^-_U_DROP high and 1/a long, could hold more
    # than _U_LEFT_TOL of the peak's integral of about width
    if lo > _U_REACH_MAX or math.exp(-_U_DROP) > _U_LEFT_TOL * a * width:
        raise ConvergenceError(f"tricomi U left tail wider than {_U_REACH_MAX} steps (a={a})")
    while psi(hi * width) > -_U_DROP and hi <= _U_REACH_MAX:
        hi *= 2
    if hi > _U_REACH_MAX:
        raise ConvergenceError(f"tricomi U integrand wider than {_U_REACH_MAX} steps")

    # log(centre value / Gamma(a)), with log(1+t*) = -log(1-u) and z t* = zt
    log_peak = a * s_pk - c * log_1mu - zt - math.lgamma(a)
    total = 0.0
    for level in range(_U_LEVEL_MAX + 1):
        k = 2**level
        # level 0 is every node; each finer level adds the odd ones
        j = np.arange(-lo, hi + 1) if level == 0 else np.arange(1 - lo * k, hi * k, 2)
        coarse, total = total, total + float(np.exp(psi(j * (width / k))).sum())
        if level and abs(total - 2.0 * coarse) <= _U_REL_TOL * total:
            return log_peak + math.log(total * width / k)
    raise ConvergenceError(
        f"tricomi U trapezoid not converged at level {_U_LEVEL_MAX} (a={a}, b={b}, z={z})",
        partial=log_peak + math.log(total * width / k),
        terms=(lo + hi) * k + 1,
    )


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z), where log_tricomi_u serves it."""
    return math.exp(log_tricomi_u(a, b, z))


def exp_e1_scaled(x: float) -> float:
    """The product e^x E1(x) for x > 0, without overflow or underflow.

    The covert-rate closed form needs this product at arguments where
    E1(x) itself underflows. Below x = 700 it is e^x times
    scipy.special.exp1. From 700 on, where E1 nears the subnormal range
    and e^x nears overflow, the asymptotic sum
    (1/x) sum_{n<12} (-1)^n n! / x^n is used; the first term it drops,
    12!/x^12, is below 4e-26 there.
    """
    if not x > 0.0:
        raise ValueError(f"E1 requires x > 0, got {x!r}")
    if x < 700.0:
        return math.exp(x) * float(special.exp1(x))
    total = 0.0
    term = 1.0
    for n in range(12):
        total += term
        term *= -(n + 1) / x
    return total / x
