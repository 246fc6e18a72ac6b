"""System parameter bundle shared by the analytic, Monte Carlo and
optimization layers.

One transmission block spans q frequency slots observed over L samples
each; the covert user hops across k of the q slots within the block, so
a warden integrating energy over the whole block sees signal in k slots
and pure noise in the remaining q - k. Transmit power p_b is split over
the m coordinating transmitters, putting rho = m p_b / (q k L) of power
into each occupied sample.
"""

import dataclasses
import math
import operator
from dataclasses import dataclass

THRESHOLD_MODES = ("per_sample_normalized", "raw")


def _integer(name: str, value) -> int:
    """value as a Python int; a float or other non-integral type is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SystemParams:
    """Immutable description of one operating point.

    gamma_e is interpreted according to threshold_mode:

    - "per_sample_normalized": gamma_e multiplies the total noise floor,
      so the detector compares its statistic against
      gamma_e * q * L * sigma0_sq. This keeps gamma_e dimensionless and
      comparable across block sizes.
    - "raw": gamma_e is the literal threshold on the energy statistic.
    """

    m: int = 4
    k: int = 4
    q: int = 64
    L: int = 8
    p_b: float = 1.0
    sigma0_sq: float = 1.0
    omega_e: float = 1.0
    omega_u: float = 2.0
    gamma_e: float = 2.0
    gamma_u: float = 2.0
    eps_e: float = 0.1
    eps_u: float = 0.1
    threshold_mode: str = "per_sample_normalized"

    def __post_init__(self):
        for name in ("m", "k", "q", "L"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.m < 1:
            raise ValueError(f"need at least one transmitter, got m={self.m}")
        if self.q < 1 or self.L < 1:
            raise ValueError(f"grid must be non-empty, got q={self.q}, L={self.L}")
        if not 1 <= self.k <= self.q:
            raise ValueError(f"k must lie in [1, q]={[1, self.q]}, got k={self.k}")
        # p_b = 0 is allowed as the signal-free limit used by the
        # simulation oracles; the detector statistics degenerate to the
        # noise-only law there.
        if not self.p_b >= 0.0:
            raise ValueError(f"p_b must be >= 0, got {self.p_b}")
        # p_b = inf stays allowed (dep = fa there), but an infinite noise
        # floor or fading mean has no limit the model defines
        for name in ("sigma0_sq", "omega_e", "omega_u"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (self.gamma_e >= 0.0 and self.gamma_u >= 0.0):
            raise ValueError(
                f"thresholds must be >= 0, got gamma_e={self.gamma_e}, "
                f"gamma_u={self.gamma_u}"
            )
        # eps = 1 is admitted as the vacuous constraint (any dep / any
        # rtp passes), which the optimizer uses for degenerate sweeps
        for name in ("eps_e", "eps_u"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, "
                f"got {self.threshold_mode!r}"
            )

    @property
    def rho(self) -> float:
        """Per-sample signal power at the detector, m p_b / (q k L)."""
        return self.m * self.p_b / (self.q * self.k * self.L)

    @property
    def effective_threshold(self) -> float:
        """Detection threshold on the raw energy statistic."""
        if self.threshold_mode == "raw":
            return self.gamma_e
        return self.gamma_e * self.q * self.L * self.sigma0_sq

    def with_(self, **changes) -> "SystemParams":
        """Copy with the given fields replaced (validates the result)."""
        return dataclasses.replace(self, **changes)


def power_from_snr_db(snr_db: float, sigma0_sq: float = 1.0) -> float:
    """Transmit power giving the stated SNR over a noise floor sigma0_sq.

    inf past about 3083 dB, where the power of ten overflows a float.
    """
    try:
        return sigma0_sq * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def snr_db_from_power(p_b: float, sigma0_sq: float = 1.0) -> float:
    """Inverse of power_from_snr_db."""
    if not p_b > 0.0 or not sigma0_sq > 0.0:
        raise ValueError("snr is defined for positive power and noise floor")
    return 10.0 * math.log10(p_b / sigma0_sq)
