"""Closed-form detection and throughput metrics for the hopping scheme.

The warden's energy statistic over one block is a sum of 2qL squared
Gaussians: under the signal-present hypothesis the k occupied slots
contribute Gamma(kL, rho g + sigma0_sq) energy and the q - k idle slots
contribute Gamma((q-k)L, sigma0_sq), where g is the warden-channel gain.
Expanding the occupied-slot factor as a negative-binomial mixture of
Gamma shapes gives the conditional miss probability

    P_md(g) = (1-x)^kL * sum_n [(kL)_n / n!] x^n P(qL + n, y),

with x = rho g / (rho g + sigma0_sq) and y the threshold in noise units.
Two independent routes average it over the exponential gain, and they
are kept separate so they can cross-check each other:

- "quadrature" substitutes z = ln(rho g / sigma0_sq), so x = logistic(z)
  and the gain density becomes phi(z + ln c) with phi(w) = exp(w - e^w)
  and c = sigma0_sq / (rho omega_e). The integrand is analytic and
  decays doubly exponentially, so the trapezoid rule on the nested grids
  z_j = j 2^-level converges exponentially; the level is refined until
  two successive grids agree. Each mixture term is one exp of a
  log-space sum, so nothing overflows for large kL. The grid does not
  depend on p_b, so P_md at the nodes is cached in blocks and shared by
  every power a solver tries at one (qL, kL, y); one call can also
  average at many powers against the same nodes, each level fetching
  the blocks once, and give the slope in ln p_b from them.
- "series" turns each mixture weight, averaged over the gain, into
  c (kL)_n U(n+1, 2-kL, c) with the Tricomi U function and sums the
  resulting series under a SeriesControl.

Both routes and the conditional miss read P(qL + n, y) from scipy's
gammainc in cached blocks of consecutive n, so a sum that stops after a
few terms (a conditional miss at high power) builds one block, not the
millions of shapes a threshold far above qL would need. The false alarm
does not depend on p_b either, so it is cached per (qL, y): a solver
that tries many powers at one threshold computes it once.
"""

import functools
import math

import numpy as np
from scipy.special import gammainc, gammaln

from .params import SystemParams
from .specfun import (
    DEFAULT_SERIES_CONTROL,
    ConvergenceError,
    SeriesControl,
    exp_e1_scaled,
    log_tricomi_u,
    reg_gamma_lower,
    reg_gamma_upper,
)

_LN2 = math.log(2.0)
_SHAPE_BLOCK = 256  # shapes per cached block of the gamma shape table
_SHAPE_CAP = 2_000_000  # most shapes _log_mixture_coeffs builds


@functools.lru_cache(maxsize=1024)
def _shape_block(s0: float, y: float, block: int) -> np.ndarray:
    """P(s0 + n, y) for the n of one block of _SHAPE_BLOCK shapes."""
    n = np.arange(block * _SHAPE_BLOCK, (block + 1) * _SHAPE_BLOCK)
    vals = gammainc(s0 + n, y)
    vals.flags.writeable = False
    return vals


def _shape(s0: float, y: float, n: int) -> float:
    return float(_shape_block(s0, y, n // _SHAPE_BLOCK)[n % _SHAPE_BLOCK])


@functools.lru_cache(maxsize=256)
def _false_alarm(s0: int, y: float) -> float:
    return reg_gamma_upper(s0, y)


def false_alarm_prob(params: SystemParams) -> float:
    """Probability the energy detector fires on noise alone.

    The noise-only statistic is Gamma(qL, sigma0_sq), so this is the
    regularized upper incomplete gamma at the threshold in noise units.
    It does not depend on p_b, so it is cached per (qL, y) for the
    solvers, which call dep at many powers and one threshold.
    """
    y = params.effective_threshold / params.sigma0_sq
    return _false_alarm(params.q * params.L, y)


def miss_detection_conditional(
    params: SystemParams, g: float, ctl: SeriesControl | None = None
) -> float:
    """Miss probability for a fixed warden channel gain g >= 0.

    Evaluates the negative-binomial mixture of incomplete gamma terms,
    truncated once the certified tail bound (remaining mixture mass
    times the next, largest remaining P value) is negligible against
    the accumulated sum.
    """
    if not g >= 0.0:
        raise ValueError(f"channel gain must be >= 0, got {g!r}")
    ctl = ctl or DEFAULT_SERIES_CONTROL
    s2 = params.sigma0_sq
    y = params.effective_threshold / s2
    if y == 0.0:
        return 0.0
    s0 = float(params.q * params.L)
    rg = params.rho * g
    if rg == 0.0:
        return _shape(s0, y, 0)
    x = rg / (rg + s2)
    kl = float(params.k * params.L)
    lt0 = kl * math.log1p(-x)
    if lt0 <= -745.0:
        # Mixture mass sits beyond the table floor; the sum is 0 to
        # double precision.
        return 0.0
    t = math.exp(lt0)
    mass = t
    total = t * _shape(s0, y, 0)
    for n in range(1, ctl.max_terms):
        t *= x * (kl + n - 1.0) / n
        mass += t
        total += t * _shape(s0, y, n)
        bound = max(1.0 - mass, 0.0) * _shape(s0, y, n + 1)
        if bound <= ctl.rel_tol * total + 1e-300:
            return total
    raise ConvergenceError(
        f"conditional miss series did not converge (g={g})",
        partial=total,
        terms=ctl.max_terms,
    )


# phi(w) = exp(w - e^w) keeps less than 1e-18 of its mass outside this range
_W_LO, _W_HI = -42.0, 4.0
_LEVEL_START = 4
_LEVEL_MAX = 10
_BLOCK = 128  # trapezoid nodes per cached block of conditional miss values
_TRAP_REL_TOL = 1e-7
# a mixture term with P below this adds less than it (the weights sum to <= 1)
_P_FLOOR = 1e-30
# mixture terms with a lower exponent (below about 1e-304) are dropped
_LOG_EXP_MIN = -700.0


@functools.lru_cache(maxsize=64)
def _log_mixture_coeffs(s0: float, kl: float, y: float) -> np.ndarray:
    """log((kL)_n / n!) + log P(qL + n, y) for every n with P >= _P_FLOOR."""
    # P decreases in n, so the kept entries are a prefix: add blocks until
    # one ends below the floor
    blocks = []
    for block in range(_SHAPE_CAP // _SHAPE_BLOCK):
        blocks.append(_shape_block(s0, y, block))
        if blocks[-1][-1] < _P_FLOOR:
            break
    else:
        raise ConvergenceError(
            f"gamma shape table needs more than {len(blocks) * _SHAPE_BLOCK} "
            f"entries (s0={s0}, y={y})"
        )
    pvals = np.concatenate(blocks)
    pvals = pvals[: np.argmax(pvals < _P_FLOOR)]
    n = np.arange(pvals.size, dtype=float)
    coeffs = gammaln(kl + n) - gammaln(kl) - gammaln(n + 1.0) + np.log(pvals)
    coeffs.flags.writeable = False
    return coeffs


@functools.lru_cache(maxsize=256)
def _cond_md_block(
    s0: float, kl: float, y: float, level: int, block: int
) -> np.ndarray:
    """Conditional miss h(z_j) at z_j = j 2^-level, j in one block of nodes.

    z = ln(rho g / sigma0_sq), so x = logistic(z) and every mixture term
    is one exp of a log-space sum; nothing is multiplied out.

    The exponent matrix is built in place, starting from the outer
    product n log x: adding a (B, 1) column to a (B, N) matrix in one
    broadcast expression is several times slower. The sums run in the
    order (n log x + kL log(1-x)) + log coefficient, which rounds exactly
    as kL log(1-x) + n log x + log coefficient does, since floating-point
    addition commutes; adding the coefficients before the kL log(1-x)
    column would move h in its last digits. Exponents below -700 are
    clamped before exp and their terms set to 0 after it: exp of a lower
    value is subnormal or 0, and numpy leaves its vectorised exp for it
    (tens of times slower on blocks at large kL). Each dropped term is
    below 1e-304, far under the 1e-30 the table floor already gives away.
    The column skip stays at -745: it decides which columns enter the row
    sums, and numpy's pairwise summation then groups them differently.
    """
    coeffs = _log_mixture_coeffs(s0, kl, y)
    z = np.arange(block * _BLOCK, (block + 1) * _BLOCK) * 2.0**-level
    log_1mx = -np.logaddexp(0.0, z)
    log_x = -np.logaddexp(0.0, -z)
    # log(1 - x) falls and log x rises with z: bound each column's exponent
    # over the block and skip the columns that underflow everywhere
    bound = kl * log_1mx[0] + np.arange(coeffs.size) * log_x[-1] + coeffs
    live = np.flatnonzero(bound > -745.0)
    h = np.zeros(_BLOCK)
    if live.size:
        lo, hi = live[0], live[-1] + 1
        expo = np.multiply.outer(log_x, np.arange(lo, hi, dtype=float))
        expo += (kl * log_1mx)[:, None]
        expo += coeffs[lo:hi]
        dead = expo < _LOG_EXP_MIN
        np.maximum(expo, _LOG_EXP_MIN, out=expo)
        np.exp(expo, out=expo)
        expo[dead] = 0.0
        h = expo.sum(axis=1)
    h.flags.writeable = False
    return h


def _log_c(params: SystemParams, p_b: float) -> float:
    # ln c = ln(sigma0_sq / (rho omega_e)) at power p_b, without forming rho,
    # which underflows for subnormal p_b
    return math.log(
        params.sigma0_sq * params.q * params.k * params.L / (params.m * params.omega_e)
    ) - math.log(p_b)


def _md_limit(params: SystemParams, y: float, p_b: float) -> float | None:
    """md where it needs no gain average (an edge of the domain), else None."""
    if y == 0.0:
        return 0.0
    if math.isinf(y):
        # the statistic is almost surely finite
        return 1.0
    if p_b == 0.0:
        return reg_gamma_lower(params.q * params.L, y)
    if p_b == math.inf:
        # the occupied slots' energy is infinite
        return 0.0
    return None


def _md_many(params: SystemParams, p_b, slope: bool = False):
    """Quadrature-route miss probability at every power in the sequence p_b.

    Returns an array with one md per power, each bit for bit what
    miss_detection_prob gives for that power alone. With slope, a second
    array holds d md / d ln p_b, from the same trapezoid nodes as md. A
    power whose average does not converge raises ConvergenceError, which
    names the first such power in p_b.
    """
    powers = [float(p) for p in p_b]
    y = params.effective_threshold / params.sigma0_sq
    md = [_md_limit(params, y, p) for p in powers]
    dmd = [0.0] * len(powers)
    run = [i for i, v in enumerate(md) if v is None]
    if run:
        vals, slopes = _trapezoid_md(params, y, [powers[i] for i in run], slope)
        for i, v, d in zip(run, vals, slopes):
            md[i], dmd[i] = v, d
    return (np.array(md), np.array(dmd)) if slope else np.array(md)


def _trapezoid_md(params: SystemParams, y: float, powers: list, slope: bool):
    """md and, with slope, d md / d ln p_b at powers 0 < p_b < inf, as lists.

    md = integral of h(z) phi(z + ln c) dz with c = sigma0_sq / (rho omega_e);
    the trapezoid rule on the nested grids z_j = j 2^-level converges
    exponentially for this analytic, doubly exponentially decaying
    integrand. The grids do not depend on p_b, so at each level the h
    blocks that the pending powers' windows cover are fetched once, and
    each power sums its own window of them exactly as it would alone. A
    power leaves at the first level that agrees with the one before it.
    The slope is -step sum_j h(z_j) phi(w_j) (1 - e^w_j), w_j = z_j + ln c.
    """
    s0 = float(params.q * params.L)
    kl = float(params.k * params.L)
    p0 = _shape(s0, y, 0)
    ln_c = [_log_c(params, p) for p in powers]
    md = [0.0] * len(powers)
    dmd = [0.0] * len(powers)
    pending = list(range(len(powers)))
    last = {}
    for level in range(_LEVEL_START, _LEVEL_MAX + 1):
        step = 2.0**-level
        # the nodes of every pending window: j in [lo, hi) where
        # lo = ceil((_W_LO - ln c) / step) and hi = floor((_W_HI - ln c) / step) + 1
        cs = [ln_c[i] for i in pending]
        base = math.ceil((_W_LO - max(cs)) / step) // _BLOCK * _BLOCK
        top = math.floor((_W_HI - min(cs)) / step) // _BLOCK + 1
        h = np.concatenate([_cond_md_block(s0, kl, y, level, b) for b in range(base // _BLOCK, top)])
        still = []
        for i, c in zip(pending, cs):
            lo = math.ceil((_W_LO - c) / step)
            hi = math.floor((_W_HI - c) / step) + 1
            # the nodes z_j = j step come out exact (a power-of-two step), so
            # z_j + ln c rounds once, as it does in a lone call
            w = np.arange(lo * step, hi * step, step) + c
            ew = np.exp(w)
            f = h[lo - base : hi - base] * np.exp(w - ew)
            fine = step * float(np.add.reduce(f))
            # the even-j nodes are the grid one level coarser
            coarse = 2.0 * step * float(np.add.reduce(f[lo % 2 :: 2]))
            # phi keeps about 6e-19 of its mass outside [_W_LO, _W_HI], so
            # two levels need not agree more closely than 1e-18
            if abs(fine - coarse) <= _TRAP_REL_TOL * fine + 1e-18:
                md[i] = min(fine, p0)
                if slope:
                    dmd[i] = -step * float(np.add.reduce(f * (1.0 - ew)))
            else:
                still.append(i)
                last[i] = (fine, f.size)
        if not still:
            return md, dmd
        pending = still
    i = pending[0]
    raise ConvergenceError(
        f"trapezoid gain average not converged at level {_LEVEL_MAX} "
        f"(q={params.q}, L={params.L}, k={params.k}, p_b={powers[i]})",
        partial=last[i][0],
        terms=last[i][1],
    )


def _avg_md_series(params: SystemParams, y: float, ctl: SeriesControl) -> float:
    s0 = float(params.q * params.L)
    kl = float(params.k * params.L)
    p0 = _shape(s0, y, 0)
    lc = _log_c(params, params.p_b)
    if lc > 709.0:
        return p0  # c overflows: md is its p_b -> 0 limit P(qL, y)
    c = math.exp(lc)
    total = 0.0
    mass = 0.0
    for n in range(ctl.max_terms):
        # log c + log (kL)_n + log U(n+1, 2-kL, c); regrouping moves the last bits
        lw = lc + (math.lgamma(kl + n) - math.lgamma(kl)) + log_tricomi_u(n + 1.0, 2.0 - kl, c)
        w = math.exp(lw) if lw > -745.0 else 0.0
        mass += w
        total += w * _shape(s0, y, n)
        bound = max(1.0 - mass, 0.0) * _shape(s0, y, n + 1)
        if n >= 1 and bound <= ctl.rel_tol * total + 1e-300:
            return min(total, p0)
    raise ConvergenceError(
        "averaged miss series did not converge", partial=total, terms=ctl.max_terms
    )


def miss_detection_prob(
    params: SystemParams,
    method: str = "quadrature",
    ctl: SeriesControl | None = None,
) -> float:
    """Miss probability averaged over the exponential warden-channel gain.

    method "quadrature" (the default) integrates the conditional miss
    against the gain density by the trapezoid rule in log gain, refining
    the grid until two successive levels agree to 1e-7 relative or 1e-18
    absolute (the accepted level is then good to about 1e-13 relative or
    1e-18 absolute, whichever is larger: 6e-19 of the gain density's mass
    lies outside the grid's window); it raises
    ConvergenceError, with the last sum as its partial value, if the
    finest level does not get there. ctl is not used by this route.
    method "series" sums the closed-form mixture whose weights involve
    the Tricomi U function, truncated at ctl.rel_tol.
    """
    y = params.effective_threshold / params.sigma0_sq
    md = _md_limit(params, y, params.p_b)
    if md is not None:
        return md
    if method == "quadrature":
        return _trapezoid_md(params, y, [params.p_b], False)[0][0]
    if method == "series":
        return _avg_md_series(params, y, ctl or DEFAULT_SERIES_CONTROL)
    raise ValueError(f"unknown method {method!r}, expected 'quadrature' or 'series'")


def dep(
    params: SystemParams,
    method: str = "quadrature",
    ctl: SeriesControl | None = None,
) -> float:
    """Detection error probability: false alarm plus averaged miss.

    A blind warden achieves 1 by always guessing one hypothesis, so the
    covertness constraint asks for dep >= 1 - eps_e.
    """
    return false_alarm_prob(params) + miss_detection_prob(params, method, ctl)


def rtp(params: SystemParams) -> float:
    """Reliable transmission probability of the hopping user.

    The user decodes when its exponential channel gain clears
    gamma_u k sigma0_sq / (m p_b), giving a closed-form exponential
    survival probability.
    """
    if params.gamma_u == 0.0:
        return 1.0
    if params.p_b == 0.0:
        return 0.0
    expo = (
        params.gamma_u
        * params.k
        * params.sigma0_sq
        / (params.m * params.p_b * params.omega_u)
    )
    return math.exp(-expo)


def covert_rate(params: SystemParams, p: float) -> float:
    """Ergodic rate (bits per channel use) at transmit power p > 0.

    E[log2(1 + beta h)] over an exponential gain h with mean omega_u,
    where beta = m p / (k sigma0_sq), reduces to e^c E1(c) / ln 2 with
    c = 1 / (beta omega_u). The scaled product form avoids the
    underflow of E1 alone at small powers.
    """
    if not p > 0.0:
        raise ValueError(f"transmit power must be > 0, got {p!r}")
    c = params.k * params.sigma0_sq / (params.m * params.omega_u * p)
    return exp_e1_scaled(c) / _LN2
