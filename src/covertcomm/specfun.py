"""Real-valued special functions for the detection and rate closed forms.

Implements the regularized incomplete gamma pair, log-Pochhammer symbols,
the Kummer and Tricomi confluent hypergeometric functions, and the
exponential integral E1, restricted to the real parameter ranges the
wideband energy-detection model actually visits.

Gamma and Pochhammer arithmetic inside series runs in log space:
coefficients like (kL)_n grow factorially and overflow doubles near
n ~ 170 if multiplied out directly. Each routine here is checked against
an independent oracle (mpmath or direct quadrature) in the test suite.
"""

import math
import warnings
from dataclasses import dataclass

from scipy import integrate
from scipy.integrate import IntegrationWarning

# Euler-Mascheroni constant, to double precision
EULER_GAMMA = 0.57721566490153286061

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300  # rescue scale for Lentz continued fractions
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


def log_pochhammer(a: float, n: int) -> float:
    """log of the rising factorial (a)_n = a (a+1) ... (a+n-1), a > 0."""
    if not a > 0.0:
        raise ValueError(f"log_pochhammer requires a > 0, got {a!r}")
    if n < 0:
        raise ValueError(f"log_pochhammer requires n >= 0, got {n!r}")
    if n == 0:
        return 0.0
    return math.lgamma(a + n) - math.lgamma(a)


def _lower_series(s: float, x: float) -> float:
    # Ascending series for P(s, x); efficient and stable when x < s + 1.
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(100_000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            lg = s * math.log(x) - x - math.lgamma(s) + math.log(total)
            return math.exp(lg) if lg > _LOG_TINY else 0.0
    raise ConvergenceError(
        f"incomplete gamma series stalled at s={s}, x={x}", partial=total
    )


def _upper_cf(s: float, x: float) -> float:
    # Modified Lentz continued fraction for Q(s, x); stable when x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            lg = s * math.log(x) - x - math.lgamma(s) + math.log(h)
            return math.exp(lg) if lg > _LOG_TINY else 0.0
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled at s={s}, x={x}", partial=h
    )


def _reg_gamma_pair(s: float, x: float) -> tuple[float, float]:
    # Returns (P, Q) with P + Q = 1 exactly: only one member is computed,
    # the other is its complement, so the pair can never drift apart.
    if not s > 0.0:
        raise ValueError(f"incomplete gamma requires s > 0, got {s!r}")
    if not x >= 0.0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if x < s + 1.0:
        p = _lower_series(s, x)
        return p, 1.0 - p
    q = _upper_cf(s, x)
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


def _checked_quad(fn, lo, hi, points=None) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = integrate.quad(
            fn, lo, hi, points=points, limit=300, epsabs=1e-280, epsrel=1e-11
        )
    if err > max(abs(val) * 1e-7, 1e-270):
        raise ConvergenceError(
            f"quadrature error {err:g} too large for integral value {val:g}"
        )
    return val


def log_tricomi_u(a: float, b: float, z: float, ctl: SeriesControl | None = None) -> float:
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
        bulk = _checked_quad(scaled, 0.0, split, points=[t0] if 0.0 < t0 < split else None)
        tail = _checked_quad(scaled, split, math.inf)
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

    head = _checked_quad(desing, 0.0, 1.0)
    phimax = _u_phi(a, b, z, 1.0)
    if tpk is not None and tpk > 1.0:
        phimax = max(phimax, _u_phi(a, b, z, tpk))

    def scaled_tail(t):
        lg = _u_phi(a, b, z, t) - phimax
        return math.exp(lg) if lg > _LOG_TINY else 0.0

    rest = _checked_quad(scaled_tail, 1.0, math.inf)
    lhead = math.log(head) if head > 0.0 else -math.inf
    lrest = phimax + math.log(rest) if rest > 0.0 else -math.inf
    top = max(lhead, lrest)
    return log_scale - math.lgamma(a) + top + math.log(
        math.exp(lhead - top) + math.exp(lrest - top)
    )


def tricomi_u(a: float, b: float, z: float, ctl: SeriesControl | None = None) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z) for a >= 0, z > 0."""
    return math.exp(log_tricomi_u(a, b, z, ctl))


def exp_e1_scaled(x: float, ctl: SeriesControl | None = None) -> float:
    """The product e^x E1(x) for x > 0, computed without forming E1 alone.

    The covert-rate closed form needs this product at arguments where
    E1(x) itself underflows (x beyond ~700). For x <= 1 the classic
    series E1 = -gamma - ln x + sum (-1)^(n+1) x^n / (n n!) is used and
    then scaled; for x > 1 a Lentz continued fraction yields the scaled
    product directly.
    """
    if not x > 0.0:
        raise ValueError(f"E1 requires x > 0, got {x!r}")
    ctl = ctl or DEFAULT_SERIES_CONTROL
    if x <= 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for n in range(1, ctl.max_terms):
            term *= -x / n
            total -= term / n
            if abs(term) <= ctl.rel_tol * abs(total) * n:
                return math.exp(x) * total
        raise ConvergenceError(f"E1 series did not converge at x={x}", partial=total)
    b = x + 1.0
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, ctl.max_terms):
        an = -float(i * i)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"E1 continued fraction did not converge at x={x}", partial=h
    )


def exp_integral_e1(x: float, ctl: SeriesControl | None = None) -> float:
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0."""
    scaled = exp_e1_scaled(x, ctl)
    if -x <= _LOG_TINY:
        return 0.0
    return math.exp(-x) * scaled
