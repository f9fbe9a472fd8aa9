"""Week-over-week stability measures for centrality results.

Scores for a fixed hotspot set are laid out as series over ascending cell
id, then compared through per-node relative differences, discrete
cross-correlation against the reference week's autocorrelation, and simple
dispersion statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Iterable, Sequence

from .centrality import CentralityScores
from .errors import DomainError, EmptyInputError


@dataclass(frozen=True)
class MetricSeries:
    """Metric values aligned to an ascending cell-id ordering."""

    metric: str
    ordering: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.ordering) != len(self.values):
            raise DomainError(
                f"series has {len(self.ordering)} ids but {len(self.values)} values"
            )
        if any(a >= b for a, b in zip(self.ordering, self.ordering[1:])):
            raise DomainError("series ordering must be strictly ascending")


@dataclass(frozen=True)
class CorrelationSeries:
    """Sliding dot products indexed by shift, from -(L-1) to L-1."""

    shifts: tuple[int, ...]
    values: tuple[float, ...]

    def value_at(self, shift: int) -> float:
        return self.values[self.shifts.index(shift)]


@dataclass(frozen=True)
class DiffSeries:
    """Relative differences in percent per shift.

    ``omitted_shifts`` lists shifts dropped because the reference value
    there was 0.
    """

    shifts: tuple[int, ...]
    values: tuple[float, ...]
    omitted_shifts: tuple[int, ...] = ()


@dataclass(frozen=True)
class Dispersion:
    """Population variance and coefficient of variation (None if mean is 0)."""

    variance: float
    cv: float | None


@dataclass(frozen=True)
class ComparisonReport:
    """Everything measured between a reference week and a second week.

    ``per_node_rel_diff_omitted`` lists nodes left out of the per-node
    differences because their week-1 value was 0.
    """

    metric: str
    per_node_rel_diff_pct: dict[int, float]
    per_node_rel_diff_omitted: tuple[int, ...]
    auto: CorrelationSeries
    cross: CorrelationSeries
    auto_cross_diff: DiffSeries
    dispersion_week1: Dispersion
    dispersion_week2: Dispersion


def to_series(scores: CentralityScores, node_set: Iterable[int]) -> MetricSeries:
    """Align scores to the ascending order of ``node_set``."""
    ordering = tuple(sorted(set(node_set)))
    missing = [cell for cell in ordering if cell not in scores.scores]
    if missing:
        raise DomainError(f"scores for metric {scores.metric!r} missing node(s) {missing}")
    return MetricSeries(
        metric=scores.metric,
        ordering=ordering,
        values=tuple(scores.scores[cell] for cell in ordering),
    )


def _check_aligned(f: MetricSeries, g: MetricSeries) -> None:
    if f.ordering != g.ordering:
        only_f = sorted(set(f.ordering) - set(g.ordering))
        only_g = sorted(set(g.ordering) - set(f.ordering))
        raise DomainError(
            f"series node sets differ; only in first: {only_f}, only in second: {only_g}"
        )


def _series_length(f: MetricSeries, g: MetricSeries) -> int:
    _check_aligned(f, g)
    length = len(f.values)
    if length == 0:
        raise DomainError("cross-correlation needs series of length at least 1")
    return length


def _dot_at(f: tuple[float, ...], g: tuple[float, ...], n: int) -> float:
    """``fsum`` of ``f[m] * g[m + n]`` over the m where both indices exist.

    The slices hold the overlapping range, in the order of ascending m.
    """
    length = len(f)
    if n >= 0:
        return math.fsum(map(mul, f[: length - n], g[n:]))
    return math.fsum(map(mul, f[-n:], g[: length + n]))


def cross_correlation(f: MetricSeries, g: MetricSeries) -> CorrelationSeries:
    """Discrete sliding dot product with zero padding outside the series.

    ``value(n) = sum over m of f[m] * g[m + n]`` for shifts -(L-1) ... L-1.
    """
    length = _series_length(f, g)
    shifts = tuple(range(-(length - 1), length))
    values = tuple(_dot_at(f.values, g.values, n) for n in shifts)
    return CorrelationSeries(shifts=shifts, values=values)


def autocorrelation(f: MetricSeries) -> CorrelationSeries:
    """Correlation of a series with shifted copies of itself.

    Shift -n sums the same products as shift n, in the same order, since
    ``f[m + n] * f[m] == f[m] * f[m + n]`` to the bit; each is summed once.
    """
    length = _series_length(f, f)
    right = [_dot_at(f.values, f.values, n) for n in range(length)]
    return CorrelationSeries(
        shifts=tuple(range(-(length - 1), length)), values=(*right[:0:-1], *right)
    )


def auto_cross_diff_pct(auto: CorrelationSeries, cross: CorrelationSeries) -> DiffSeries:
    """Relative |auto - cross| / auto in percent, per shift.

    Shifts where the autocorrelation is 0 are omitted and flagged.
    """
    if auto.shifts != cross.shifts:
        raise DomainError(
            f"shift ranges differ: {auto.shifts[0]}..{auto.shifts[-1]} vs "
            f"{cross.shifts[0]}..{cross.shifts[-1]}"
        )
    shifts: list[int] = []
    values: list[float] = []
    omitted: list[int] = []
    for shift, a, c in zip(auto.shifts, auto.values, cross.values):
        if a == 0.0:
            omitted.append(shift)
        else:
            shifts.append(shift)
            values.append(abs(a - c) / a * 100.0)
    return DiffSeries(shifts=tuple(shifts), values=tuple(values), omitted_shifts=tuple(omitted))


def per_node_rel_diff(week1: MetricSeries, week2: MetricSeries) -> dict[int, float]:
    """Per-node |v2 - v1| / v1 in percent, with week 1 as the baseline."""
    _check_aligned(week1, week2)
    diffs: dict[int, float] = {}
    for cell, v1, v2 in zip(week1.ordering, week1.values, week2.values):
        if v1 == 0.0:
            raise DomainError(f"baseline value is 0 for node {cell}")
        diffs[cell] = abs(v2 - v1) / v1 * 100.0
    return diffs


def dispersion_of(values: Sequence[float]) -> Dispersion:
    """Population variance and cv of a value collection."""
    values = list(values)
    if not values:
        raise EmptyInputError("dispersion needs at least one value")
    n = len(values)
    mean = math.fsum(values) / n
    # ** 2, not v * v: libm's pow and a product differ by an ulp on some values
    variance = math.fsum(map(pow, map(sub, values, repeat(mean)), repeat(2))) / n
    cv = math.sqrt(variance) / mean if mean > 0 else None
    return Dispersion(variance=variance, cv=cv)


def _subseries(series: MetricSeries, positions: Sequence[int]) -> MetricSeries:
    return MetricSeries(
        metric=series.metric,
        ordering=tuple(series.ordering[i] for i in positions),
        values=tuple(series.values[i] for i in positions),
    )


def compare_weeks(week1: MetricSeries, week2: MetricSeries) -> ComparisonReport:
    """Assemble the full comparison of one metric across two weeks.

    Nodes whose week-1 value is 0 have no relative difference; they are
    omitted from it and listed, while every other measure covers them.
    """
    if week1.metric != week2.metric:
        raise DomainError(f"metric mismatch: {week1.metric!r} vs {week2.metric!r}")
    _check_aligned(week1, week2)
    auto = autocorrelation(week1)
    cross = cross_correlation(week1, week2)
    kept = [i for i, v1 in enumerate(week1.values) if v1 != 0.0]
    return ComparisonReport(
        metric=week1.metric,
        per_node_rel_diff_pct=per_node_rel_diff(_subseries(week1, kept), _subseries(week2, kept)),
        per_node_rel_diff_omitted=tuple(
            cell for cell, v1 in zip(week1.ordering, week1.values) if v1 == 0.0
        ),
        auto=auto,
        cross=cross,
        auto_cross_diff=auto_cross_diff_pct(auto, cross),
        dispersion_week1=_dispersion(week1, "week 1"),
        dispersion_week2=_dispersion(week2, "week 2"),
    )


def _dispersion(series: MetricSeries, week: str) -> Dispersion:
    """:func:`dispersion_of` the series, with a ``DomainError`` where its sums
    or squares pass the largest float."""
    try:
        return dispersion_of(series.values)
    except OverflowError:
        raise DomainError(
            f"the dispersion of {series.metric} in {week} passes the largest float"
        ) from None


def report_json_obj(report: ComparisonReport) -> dict:
    """JSON-ready representation of a comparison report."""

    def _corr(series: CorrelationSeries) -> dict:
        return {"shifts": list(series.shifts), "values": list(series.values)}

    def _disp(d: Dispersion) -> dict:
        return {"variance": d.variance, "cv": d.cv}

    return {
        "metric": report.metric,
        "per_node_rel_diff_pct": {
            str(cell): report.per_node_rel_diff_pct[cell]
            for cell in sorted(report.per_node_rel_diff_pct)
        },
        "per_node_rel_diff_omitted": list(report.per_node_rel_diff_omitted),
        "auto": _corr(report.auto),
        "cross": _corr(report.cross),
        "auto_cross_diff_pct": {
            "shifts": list(report.auto_cross_diff.shifts),
            "values": list(report.auto_cross_diff.values),
            "omitted_shifts": list(report.auto_cross_diff.omitted_shifts),
        },
        "dispersion": {
            "week1": _disp(report.dispersion_week1),
            "week2": _disp(report.dispersion_week2),
        },
    }
