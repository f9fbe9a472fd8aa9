"""Hotspot selection from aggregated traffic via a parametric cutoff.

A cell is a hotspot when its intensity is at or above
``mean + (max - mean) * p``: the parameter ``p`` slides the cutoff from the
per-cell mean (p = 0) up to the maximum intensity (p = 1).  ``calibrate_p``
searches a fixed grid of ``p`` values for the one that yields a requested
hotspot count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .errors import CalibrationError, DomainError, EmptyInputError
from .ingest import TimeWindow, TrafficAggregate

P_GRID_STEPS = 1000  # calibration searches p in {0, 1/1000, ..., 1}


class ThresholdSpec(NamedTuple):
    """The cutoff derived from a traffic aggregate and the parameter p."""

    p: float
    mean_intensity: float
    max_traffic: float
    delta: float
    threshold: float
    n_areas: int


class HotspotSet(NamedTuple):
    """Cells selected by one cutoff, with the metadata that produced them.

    ``members`` is sorted ascending by cell id.  When ``truncated`` is set
    (only by :func:`calibrate_p`), the member list was cut down to a target
    size and cells tied at the cutoff may have been left out.
    """

    window: TimeWindow
    spec: ThresholdSpec
    members: tuple[int, ...]
    intensities: dict[int, float]
    truncated: bool = False


def compute_threshold(traffic: TrafficAggregate, p: float) -> ThresholdSpec:
    """Derive the cutoff for parameter ``p`` over a nonempty aggregate.

    Raises :class:`DomainError` when the cells' total, and so their mean,
    is past the largest float.
    """
    if not traffic.intensities:
        raise EmptyInputError("cannot compute a threshold over an empty traffic aggregate")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    values = traffic.intensities.values()
    n = len(values)
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not total < math.inf:
        raise DomainError(f"the activity of all {n} cells sums past the largest float")
    mean = total / n
    max_traffic = max(values)
    delta = (max_traffic - mean) * p
    return ThresholdSpec(
        p=p,
        mean_intensity=mean,
        max_traffic=max_traffic,
        delta=delta,
        threshold=mean + delta,
        n_areas=n,
    )


def detect_hotspots(traffic: TrafficAggregate, p: float) -> HotspotSet:
    """Select every cell whose intensity is at or above the cutoff for ``p``."""
    spec = compute_threshold(traffic, p)
    members = tuple(
        sorted(cell for cell, value in traffic.intensities.items() if value >= spec.threshold)
    )
    return HotspotSet(
        window=traffic.window,
        spec=spec,
        members=members,
        intensities={cell: traffic.intensities[cell] for cell in members},
    )


def calibrate_p(traffic: TrafficAggregate, k: int) -> tuple[float, HotspotSet]:
    """Find the largest grid ``p`` whose hotspot count reaches ``k``.

    The hotspot count is non-increasing in ``p``, so the largest ``p`` with
    count >= k also has the smallest count >= k.  If ties at the cutoff make
    an exact count of ``k`` impossible, the set is truncated to the top-k by
    intensity (ties broken by ascending cell id) and flagged ``truncated``.

    Raises :class:`CalibrationError` when even ``p = 0`` selects fewer than
    ``k`` cells, reporting the maximum achievable count.
    """
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    spec0 = compute_threshold(traffic, 0.0)
    ordered = sorted(traffic.intensities.values())
    n = len(ordered)
    span = spec0.max_traffic - spec0.mean_intensity

    chosen = None
    for i in range(P_GRID_STEPS, -1, -1):
        p = i / P_GRID_STEPS
        threshold = spec0.mean_intensity + span * p
        count = n - bisect_left(ordered, threshold)
        if count >= k:
            chosen = p
            break
    if chosen is None:
        max_count = n - bisect_left(ordered, spec0.threshold)
        raise CalibrationError(
            f"no cutoff selects {k} hotspots; at most {max_count} cells reach the mean intensity",
            max_achievable=max_count,
        )

    hotspots = detect_hotspots(traffic, chosen)
    if len(hotspots.members) > k:
        top = sorted(hotspots.intensities.items(), key=lambda item: (-item[1], item[0]))[:k]
        members = tuple(sorted(cell for cell, _ in top))
        hotspots = hotspots._replace(
            members=members,
            intensities={cell: traffic.intensities[cell] for cell in members},
            truncated=True,
        )
    return chosen, hotspots
