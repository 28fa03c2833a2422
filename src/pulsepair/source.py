"""Two-crystal down-conversion source model.

A pump at ``pump_angle`` drives two stacked crystals whose optic axes lie in
perpendicular planes: one crystal emits |HH> pairs, the other |VV> pairs.
After single-mode-fiber filtering the two emission paths overlap with a
scalar indistinguishability ``overlap_mu`` in [0, 1], which scales the
HH <-> VV coherence; crystal-height trimming is modeled by the two gain
factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .polarization import (
    DensityMatrix,
    OneQubitOperator,
    apply_local,
    half_waveplate,
    identity,
    phase_shifter,
)

# Upper bound on the mean pairs per pulse.  Nothing in the Monte Carlo grows
# with lambda; the bound keeps configs within the range the sampler and the
# rate models are tested over.  At it every pulse already holds a pair:
# exp(-1000) underflows to 0 in float64.
MAX_MEAN_PAIRS_PER_PULSE = 1000.0


@dataclass(frozen=True)
class SourceConfig:
    """Physical knobs of the pair source.

    pump_angle           pump polarization angle from horizontal (radians)
    gain_up, gain_down   amplitude factors of the HH and VV processes (>= 0)
    relative_phase       phase of the VV amplitude relative to HH (radians)
    overlap_mu           spatial indistinguishability of the two paths [0, 1]
    mean_pairs_per_pulse Poisson mean of pairs emitted per pump pulse
                         [0, MAX_MEAN_PAIRS_PER_PULSE]
    """

    pump_angle: float = np.pi / 4
    gain_up: float = 1.0
    gain_down: float = 1.0
    relative_phase: float = 0.0
    overlap_mu: float = 1.0
    mean_pairs_per_pulse: float = 0.01

    def __post_init__(self) -> None:
        for field in fields(self):
            val = getattr(self, field.name)
            if not math.isfinite(val):
                raise ValueError(f"{field.name} must be finite, got {val}")
        if self.gain_up < 0 or self.gain_down < 0:
            raise ValueError("crystal gains must be nonnegative")
        if not 0.0 <= self.overlap_mu <= 1.0:
            raise ValueError(f"overlap_mu must lie in [0, 1], got {self.overlap_mu}")
        if not 0.0 <= self.mean_pairs_per_pulse <= MAX_MEAN_PAIRS_PER_PULSE:
            raise ValueError(
                f"mean_pairs_per_pulse must lie in [0, {MAX_MEAN_PAIRS_PER_PULSE:g}], "
                f"got {self.mean_pairs_per_pulse}"
            )
        # hypot, not a sum of squares: huge or tiny gains must not overflow to inf
        # or underflow to 0
        amplitude = np.hypot(
            self.gain_up * np.cos(self.pump_angle), self.gain_down * np.sin(self.pump_angle)
        )
        if amplitude <= 0.0:
            raise ValueError("degenerate source: both emission amplitudes vanish")


def _amplitudes(pump_angle, gain_up, gain_down, relative_phase) -> tuple[complex, complex]:
    a_h = gain_up * np.cos(pump_angle)
    a_v = gain_down * np.sin(pump_angle) * np.exp(1j * relative_phase)
    return complex(a_h), complex(a_v)


# How many configs' emitted states stay cached; the least recently used goes first.
_STATE_CACHE_SIZE = 64


def emitted_state(cfg: SourceConfig) -> DensityMatrix:
    """Density matrix of one emitted pair.

    Populations |aH|^2 and |aV|^2 on HH and VV, HH <-> VV coherence scaled by
    ``overlap_mu``; the HV/VH sector is empty for this source geometry.
    Equal configs, and configs that differ only in ``mean_pairs_per_pulse``,
    give the same immutable :class:`DensityMatrix`, built and eigen-checked
    once per process while the config stays among the
    ``_STATE_CACHE_SIZE`` most recently used.
    """
    return _state(cfg.pump_angle, cfg.gain_up, cfg.gain_down, cfg.relative_phase, cfg.overlap_mu)


# typed: a numpy float32 field computes in its own precision, so it must not
# share an entry with the equal Python float.  Equal values of opposite zero
# sign may share one, since they build equal entries with equal sign bits.
@functools.lru_cache(maxsize=_STATE_CACHE_SIZE, typed=True)
def _state(pump_angle, gain_up, gain_down, relative_phase, overlap_mu) -> DensityMatrix:
    a_h, a_v = _amplitudes(pump_angle, gain_up, gain_down, relative_phase)
    # only the amplitudes' ratio matters; scaling the larger one to 1 keeps
    # the squares below from overflowing or underflowing
    scale = max(abs(a_h), abs(a_v))
    if scale <= 0.0:
        raise ValueError("degenerate source: both emission amplitudes vanish")
    a_h, a_v = a_h / scale, a_v / scale
    norm = abs(a_h) ** 2 + abs(a_v) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = abs(a_h) ** 2 / norm
    rho[3, 3] = abs(a_v) ** 2 / norm
    rho[0, 3] = overlap_mu * a_h * np.conj(a_v) / norm
    rho[3, 0] = np.conj(rho[0, 3])
    return DensityMatrix(rho)


def amplitude_ratio(cfg: SourceConfig) -> complex:
    """Complex VV/HH amplitude ratio of the emitted superposition.

    Undefined for a pure-VV source (zero HH amplitude).
    """
    a_h, a_v = _amplitudes(cfg.pump_angle, cfg.gain_up, cfg.gain_down, cfg.relative_phase)
    if abs(a_h) <= 1e-12 * np.hypot(abs(a_h), abs(a_v)):
        raise ValueError("amplitude ratio undefined: pure VV source (zero HH amplitude)")
    return a_v / a_h


def mixed_state(theta: float) -> DensityMatrix:
    """Incoherent mixture cos^2(theta)|HH><HH| + sin^2(theta)|VV><VV|.

    Equal to the emitted state with zero spatial overlap and the pump set so
    the HH weight is cos^2(theta).
    """
    c2 = np.cos(theta) ** 2
    return DensityMatrix(np.diag([c2, 0.0, 0.0, 1.0 - c2]).astype(complex))


def bell_transform(
    rho: DensityMatrix,
    hwp_angle: float | None = None,
    shifter_phase: float = 0.0,
    arm: int = 2,
) -> DensityMatrix:
    """Pass one arm through a phase shifter and an optional half waveplate.

    The shifter acts first, then the plate (omitted when ``hwp_angle`` is
    None).  Both elements are unitary, so purity and entanglement are
    untouched; applied to (HH+VV) this reaches the other three Bell states.
    """
    if arm not in (1, 2):
        raise ValueError(f"arm must be 1 or 2, got {arm}")
    u = phase_shifter(shifter_phase).matrix
    if hwp_angle is not None:
        u = half_waveplate(hwp_angle).matrix @ u
    element = OneQubitOperator(u)
    if arm == 1:
        out, _ = apply_local(rho, element, identity())
    else:
        out, _ = apply_local(rho, identity(), element)
    return out
