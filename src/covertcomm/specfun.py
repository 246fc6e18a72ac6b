"""Real-valued special functions for the detection and rate closed forms.

Provides the regularized incomplete gamma pair P/Q (read from
scipy.special and returned as an exact complement pair), the Kummer and
Tricomi confluent hypergeometric functions, and the scaled exponential
integral e^x E1(x) (scipy.special.exp1 below x = 700, an asymptotic sum
from there on), restricted to the real parameter ranges the wideband
energy-detection model actually visits.

Gamma-function factors run in log space: U(a, b, z) and Gamma(a)
overflow doubles at the parameters a high-power miss series visits, so
log_tricomi_u rescales its integrand and returns a logarithm. Each
routine here is checked against an independent oracle (mpmath or direct
quadrature) in the test suite.
"""

import math
import warnings
from dataclasses import dataclass

from scipy import integrate, special
from scipy.integrate import IntegrationWarning

_LOG_TINY = -745.0  # exp() underflows to 0 below this


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
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if int(self.max_terms) < 1:
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


def _u_phi(a: float, b: float, z: float, t: float) -> float:
    # log of the U integrand t^(a-1) (1+t)^(b-a-1) e^(-zt), t > 0
    return -z * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t)


def _u_peak(a: float, b: float, z: float) -> float | None:
    # Stationary point of the log integrand: z t^2 + (z + 2 - b) t - (a - 1) = 0.
    bb = z + 2.0 - b
    disc = bb * bb + 4.0 * z * (a - 1.0)
    if disc < 0.0:
        return None
    t = (-bb + math.sqrt(disc)) / (2.0 * z)
    return t if t > 0.0 else None


def _quad(fn, lo, hi, points=None) -> tuple[float, float]:
    # (value, error estimate); the caller checks the error of its whole sum
    # with _check_quad, so a negligible piece is not held to its own size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return integrate.quad(
            fn, lo, hi, points=points, limit=300, epsabs=1e-280, epsrel=1e-11
        )


def _check_quad(val: float, err: float) -> None:
    if err > max(abs(val) * 1e-7, 1e-270):
        raise ConvergenceError(
            f"quadrature error {err:g} too large for integral value {val:g}"
        )


def log_tricomi_u(a: float, b: float, z: float) -> float:
    """log of the Tricomi confluent hypergeometric function U(a, b, z).

    Uses the integral representation

        U(a, b, z) = (1 / Gamma(a)) * int_0^inf t^(a-1) (1+t)^(b-a-1) e^(-zt) dt

    valid for a > 0, z > 0 and any real b (including the non-positive
    integers where no series representation exists), after the Kummer
    transformation U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z) (DLMF 13.2.40)
    for b < 1. The integrand is rescaled by its peak value before
    quadrature so the result stays finite even when U itself would
    overflow or underflow a double.
    """
    if a == 0.0:
        return 0.0  # U(0, b, z) = 1: the defining series terminates at n = 0
    if not a > 0.0:
        raise ValueError(f"tricomi U integral form requires a >= 0, got {a!r}")
    if not z > 0.0:
        raise ValueError(f"tricomi U requires z > 0, got {z!r}")

    # For b < 1 the factor (1+t)^(b-a-1) can decay on a scale far narrower
    # than the 1/z the split below assumes, and quad then steps over the
    # peak; after the transformation b > 1 and e^(-zt) sets the scale
    log_scale = 0.0
    if b < 1.0:
        log_scale = (1.0 - b) * math.log(z)
        a, b = a - b + 1.0, 2.0 - b

    tpk = _u_peak(a, b, z)
    if a >= 1.0:
        # Integrand is bounded: value at t=0 is 1 for a == 1, else 0.
        t0 = tpk if tpk is not None else 0.0
        phimax = _u_phi(a, b, z, t0) if t0 > 0.0 else 0.0

        def scaled(t):
            if t <= 0.0:
                return math.exp(-phimax) if a == 1.0 else 0.0
            lg = _u_phi(a, b, z, t) - phimax
            return math.exp(lg) if lg > _LOG_TINY else 0.0

        # Width of the peak sets the split between the bulk and the
        # pure-exponential tail handled by the semi-infinite rule.
        width = 1.0 / z
        if t0 > 0.0:
            curv = -(a - 1.0) / (t0 * t0) - (b - a - 1.0) / ((1.0 + t0) ** 2)
            if curv < 0.0:
                width = max(width, 1.0 / math.sqrt(-curv))
        split = t0 + 40.0 * width
        bulk, bulk_err = _quad(scaled, 0.0, split, points=[t0] if 0.0 < t0 < split else None)
        tail, tail_err = _quad(scaled, split, math.inf)
        _check_quad(bulk + tail, bulk_err + tail_err)
        return log_scale - math.lgamma(a) + phimax + math.log(bulk + tail)

    # 0 < a < 1: integrable singularity at t=0. Substituting t = u^(1/a)
    # on [0, 1] gives a bounded integrand; the rest is regular.
    inv_a = 1.0 / a

    def desing(u):
        if u <= 0.0:
            return inv_a
        t = u ** inv_a
        lg = -z * t + (b - a - 1.0) * math.log1p(t)
        return inv_a * math.exp(lg) if lg > _LOG_TINY else 0.0

    head, head_err = _quad(desing, 0.0, 1.0)
    phimax = _u_phi(a, b, z, 1.0)
    if tpk is not None and tpk > 1.0:
        phimax = max(phimax, _u_phi(a, b, z, tpk))

    def scaled_tail(t):
        lg = _u_phi(a, b, z, t) - phimax
        return math.exp(lg) if lg > _LOG_TINY else 0.0

    rest, rest_err = _quad(scaled_tail, 1.0, math.inf)
    lhead = math.log(head) if head > 0.0 else -math.inf
    lrest = phimax + math.log(rest) if rest > 0.0 else -math.inf
    top = max(lhead, lrest)
    # head is in natural units and rest in units of e^phimax: check the
    # summed error against the sum, both in units of e^top
    total = math.exp(lhead - top) + math.exp(lrest - top)
    _check_quad(total, head_err * math.exp(-top) + rest_err * math.exp(phimax - top))
    return log_scale - math.lgamma(a) + top + math.log(total)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z) for a >= 0, z > 0."""
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
