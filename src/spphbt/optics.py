"""Detection channel: plasmon coupling, Fourier-plane ring, fibers, APDs.

Photons couple to a surface plasmon mode with an orientation-dependent
probability, survive propagation and leakage with fixed probabilities, and
arrive on a thin ring in the back focal plane at a uniformly distributed
azimuth.  Two multimode fibers, each subtending a fraction of the ring's
circumference, pick photons off the ring; photons inside both arcs are
split at the beamsplitter fraction, and a quantum-efficiency factor decides
whether the APD fires.  The direct (non-Fourier) path models plain
fluorescence collection: a single geometric collection probability
followed by a beamsplitter, used for emitters on bare glass.

Every photon meets the chain independently, so
`expected_channel_efficiencies` gives its whole effect as two numbers, the
probabilities eff_A and eff_B that a signal photon fires channel A or B.
The emission sampler draws only detected photons (at eff_A + eff_B), and
`route_events` assigns each of them a channel with the one share
eff_A / (eff_A + eff_B).  Background counts bypass the loss chain but share
the signal's split, so every detector sees the same signal fraction rho.

The sampler's detections arrive as the run's one stream type,
`TimeTagStream` (sorted int64 ps), so the routed tags are those tags,
jittered by whole picoseconds if at all, and stay one time-ordered stream
with a mask of channel B's (`ChannelTags`), A's first at equal tags
(`correlator._a_first_at_ties`).  The channel draw and any jitter
run once over the events in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlator import ChannelTags, TimeTagStream, _a_first_at_ties
from .errors import InvalidGeometry

__all__ = [
    "DetectionGeometry",
    "EfficiencyBudget",
    "DipoleMix",
    "RoutedStreams",
    "coupling_ratio",
    "collection_fraction",
    "route_events",
    "expected_channel_efficiencies",
]

_TWO_PI = 2.0 * math.pi
# events whose channel uniforms route_events draws at once
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class DetectionGeometry:
    """Where the two pickup fibers sit on the leakage-radiation ring.

    Routing depends only on which fiber arcs contain a photon's azimuth, so
    the ring is described by its radius in the back focal plane alone; the
    plasmon enhancement follows from the mode index through `coupling_ratio`
    and enters a run through the efficiency budget.  Fiber angles are
    azimuthal positions on the ring in [0, 2*pi) rad;
    fiber_effective_diameter and ring_radius_bfp share any one length unit.
    """

    fiber_a_angle: float = 0.0
    fiber_b_angle: float = math.pi / 2.0
    fiber_effective_diameter: float = 0.44
    ring_radius_bfp: float = 1.0

    def __post_init__(self) -> None:
        for name in ("fiber_a_angle", "fiber_b_angle"):
            v = getattr(self, name)
            if not (0.0 <= v < _TWO_PI):
                raise InvalidGeometry(f"{name} must lie in [0, 2*pi), got {v!r}")
        if self.fiber_effective_diameter < 0.0 or self.ring_radius_bfp <= 0.0:
            raise InvalidGeometry("fiber diameter must be >= 0 and ring radius > 0")

    @property
    def fiber_fraction(self) -> float:
        """Fraction of the ring circumference one fiber face covers."""
        return collection_fraction(self.fiber_effective_diameter, self.ring_radius_bfp)


@dataclass(frozen=True)
class EfficiencyBudget:
    """Per-stage detection probabilities, each in [0, 1].

    p_couple_vertical / p_couple_horizontal: emission-to-plasmon coupling by
    dipole orientation.  p_survive: propagation to the leakage region.
    p_leak: radiated into the collected ring.  p_collect: geometric
    collection on the direct (non-Fourier) path; the ring path takes its
    geometry from DetectionGeometry instead.  p_bs: share of split events
    sent to channel A.  p_qe: APD quantum efficiency.
    """

    p_couple_vertical: float = 1.0
    p_couple_horizontal: float = 1.0
    p_survive: float = 1.0
    p_leak: float = 1.0
    p_collect: float = 1.0
    p_bs: float = 0.5
    p_qe: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_couple_vertical", "p_couple_horizontal", "p_survive",
                     "p_leak", "p_collect", "p_bs", "p_qe"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class DipoleMix:
    """Orientation statistics of the emitting dipoles."""

    fraction_vertical: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction_vertical <= 1.0):
            raise ValueError(
                f"fraction_vertical must lie in [0, 1], got {self.fraction_vertical!r}")


@dataclass(frozen=True)
class RoutedStreams:
    """The detected tags of both channels; n_events counts the routed events."""

    channels: ChannelTags
    n_events: int

    @property
    def n_detected(self) -> int:
        return len(self.channels.pooled)


def coupling_ratio(n_spp: float) -> float:
    """Plasmon-to-free-space emission enhancement n^2/(n^2 - 1) for a bound mode."""
    if not (math.isfinite(n_spp) and n_spp > 1.0):
        raise InvalidGeometry(f"bound mode requires n_spp > 1, got {n_spp!r}")
    n2 = n_spp * n_spp
    return n2 / (n2 - 1.0)


def collection_fraction(diameter: float, radius: float) -> float:
    """Fraction of ring circumference a fiber face of given diameter covers, clamped to 1."""
    if radius <= 0.0:
        raise InvalidGeometry(f"ring radius must be > 0, got {radius!r}")
    if diameter < 0.0:
        raise InvalidGeometry(f"diameter must be >= 0, got {diameter!r}")
    return min(diameter / (_TWO_PI * radius), 1.0)


def _arc_overlap(a: float, wa: float, b: float, wb: float) -> float:
    """Length of overlap of two arcs [a-wa, a+wa], [b-wb, b+wb] on the circle."""
    total = 0.0
    for k in (-1.0, 0.0, 1.0):
        lo = max(a - wa, b - wb + _TWO_PI * k)
        hi = min(a + wa, b + wb + _TWO_PI * k)
        total += max(0.0, hi - lo)
    return min(total, 2.0 * wa, 2.0 * wb)


def route_events(
    stream: TimeTagStream,
    share_a: float,
    seed,
    *,
    jitter_sigma_ns: float = 0.0,
) -> RoutedStreams:
    """Assign each detected event of a stream to channel A or B and tag it.

    One uniform draw per event sends it to A with probability share_a
    (eff_A / (eff_A + eff_B)) and otherwise to B.  Tags are the events' own
    ps tags, each moved by a Gaussian jitter (sigma in ns) rounded to whole ps;
    jittered tags outside [0, duration] are dropped.  Equal tags list
    channel A's first.
    """
    sigma_ps = jitter_sigma_ns * 1000.0
    if not (math.isfinite(sigma_ps) and sigma_ps >= 0.0):
        raise ValueError(f"jitter_sigma_ns must be finite and >= 0, got {jitter_sigma_ns!r}")
    rng = np.random.default_rng(seed)
    n = len(stream)
    # the uniforms are drawn a block at a time: the same stream as one draw, in less memory
    on_b = np.empty(n, dtype=bool)
    for first in range(0, n, _DRAW_BLOCK):
        part = on_b[first:first + _DRAW_BLOCK]
        np.greater_equal(rng.random(part.size), share_a, out=part)
    tags = stream.tags
    if sigma_ps > 0.0:
        # a shift past the duration drops its tag wherever it lies; clipped there, it fits
        # the int64 cast
        shift, reach = rng.normal(0.0, sigma_ps, n), stream.duration + 1
        np.clip(np.rint(shift, out=shift), -reach, reach, out=shift)
        tags = tags + shift.astype(np.int64)
        # jittered tags reorder; each keeps its channel.  A stable sort is the fast
        # one on nearly sorted tags; the order at equal tags is set below
        order = np.argsort(tags, kind="stable")
        tags, on_b = tags[order], on_b[order]
    _a_first_at_ties(tags, on_b)
    # only jitter moves tags out of [0, duration], and only at the sorted ends
    lo, hi = np.searchsorted(tags, [0, stream.duration + 1]).tolist()
    return RoutedStreams(
        ChannelTags(TimeTagStream(tags[lo:hi], "A+B", stream.duration), on_b[lo:hi]), n)


def expected_channel_efficiencies(
    geometry: DetectionGeometry,
    budget: EfficiencyBudget,
    mix: DipoleMix,
    mode: str = "fourier",
) -> tuple[float, float]:
    """Analytic per-signal-photon detection probability of channels A and B."""
    if mode == "direct":
        chain = budget.p_collect * budget.p_qe
        return chain * budget.p_bs, chain * (1.0 - budget.p_bs)
    couple = (mix.fraction_vertical * budget.p_couple_vertical
              + (1.0 - mix.fraction_vertical) * budget.p_couple_horizontal)
    chain = couple * budget.p_survive * budget.p_leak * budget.p_qe
    w = math.pi * geometry.fiber_fraction
    f = geometry.fiber_fraction
    overlap = _arc_overlap(geometry.fiber_a_angle, w, geometry.fiber_b_angle, w) / _TWO_PI
    eff_a = chain * ((f - overlap) + overlap * budget.p_bs)
    eff_b = chain * ((f - overlap) + overlap * (1.0 - budget.p_bs))
    return eff_a, eff_b

