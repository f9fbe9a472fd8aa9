import pytest
from hypothesis import given, strategies as st

from gridhot.centrality import CentralityScores
from gridhot.compare import (
    CorrelationSeries,
    MetricSeries,
    auto_cross_diff_pct,
    autocorrelation,
    compare_weeks,
    cross_correlation,
    dispersion_of,
    report_json_obj,
    to_series,
)
from gridhot.errors import DomainError, EmptyInputError


def series(values, metric="closeness", ordering=None):
    ordering = tuple(ordering) if ordering else tuple(range(1, len(values) + 1))
    return MetricSeries(metric=metric, ordering=ordering, values=tuple(values))


class TestToSeries:
    def test_orders_by_ascending_id(self):
        scores = CentralityScores("degree", {5: 0.2, 3: 0.7})
        result = to_series(scores, [3, 5])
        assert result.ordering == (3, 5)
        assert result.values == (0.7, 0.2)

    def test_missing_node_named(self):
        scores = CentralityScores("degree", {3: 0.7})
        with pytest.raises(DomainError, match="9"):
            to_series(scores, [3, 9])

    def test_empty_node_set(self):
        result = to_series(CentralityScores("degree", {3: 0.7}), [])
        assert result.ordering == () and result.values == ()

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MetricSeries("degree", (1, 2), (0.5,))

    def test_unsorted_ordering_rejected(self):
        with pytest.raises(DomainError):
            MetricSeries("degree", (2, 1), (0.5, 0.5))


class TestCrossCorrelation:
    def test_hand_example(self):
        f = series([1.0, 2.0, 3.0])
        result = cross_correlation(f, f)
        assert result.shifts == (-2, -1, 0, 1, 2)
        assert result.values == (3.0, 8.0, 14.0, 8.0, 3.0)
        assert result.values[result.shifts.index(0)] == 14.0
        assert result.values[result.shifts.index(1)] == 8.0

    def test_shifted_impulse(self):
        f = series([1.0, 0.0])
        g = series([0.0, 1.0])
        result = cross_correlation(f, g)
        assert result.values[result.shifts.index(1)] == 1.0
        assert result.values[result.shifts.index(0)] == 0.0

    def test_length_one(self):
        result = cross_correlation(series([3.0]), series([4.0]))
        assert result.shifts == (0,)
        assert result.values == (12.0,)

    def test_ordering_mismatch_lists_difference(self):
        f = series([1.0, 2.0], ordering=(1, 2))
        g = series([1.0, 2.0], ordering=(1, 3))
        with pytest.raises(DomainError) as info:
            cross_correlation(f, g)
        assert "[2]" in str(info.value) and "[3]" in str(info.value)

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            cross_correlation(series([]), series([]))


class TestAutocorrelation:
    def test_hand_example(self):
        result = autocorrelation(series([1.0, 2.0, 3.0]))
        assert result.values[result.shifts.index(0)] == 14.0

    def test_all_zero(self):
        result = autocorrelation(series([0.0, 0.0, 0.0]))
        assert set(result.values) == {0.0}


class TestAutoCrossDiff:
    def test_identity_is_zero(self):
        auto = autocorrelation(series([1.0, 2.0, 3.0]))
        diff = auto_cross_diff_pct(auto, auto)
        assert set(diff.values) == {0.0}
        assert diff.omitted_shifts == ()

    def test_five_percent(self):
        auto = CorrelationSeries(shifts=(0,), values=(14.0,))
        cross = CorrelationSeries(shifts=(0,), values=(13.3,))
        diff = auto_cross_diff_pct(auto, cross)
        assert diff.values[0] == pytest.approx(5.0, rel=1e-12)

    def test_zero_auto_shift_omitted(self):
        auto = CorrelationSeries(shifts=(-1, 0, 1), values=(0.0, 10.0, 2.0))
        cross = CorrelationSeries(shifts=(-1, 0, 1), values=(1.0, 9.0, 2.0))
        diff = auto_cross_diff_pct(auto, cross)
        assert diff.omitted_shifts == (-1,)
        assert diff.shifts == (0, 1)

    def test_shift_range_mismatch(self):
        auto = CorrelationSeries(shifts=(0,), values=(1.0,))
        cross = CorrelationSeries(shifts=(-1, 0, 1), values=(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            auto_cross_diff_pct(auto, cross)


class TestDispersion:
    def test_constant_values(self):
        result = dispersion_of([2.0, 2.0, 2.0])
        assert result.variance == 0.0 and result.cv == 0.0

    def test_hand_example(self):
        result = dispersion_of([0.0, 2.0])
        assert result.variance == 1.0 and result.cv == 1.0

    def test_single_value(self):
        assert dispersion_of([5.0]).variance == 0.0

    def test_zero_mean_has_no_cv(self):
        assert dispersion_of([0.0, 0.0]).cv is None

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dispersion_of([])


value_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, width=32),
    min_size=1,
    max_size=20,
)


@given(value_lists)
def test_cross_of_self_equals_auto_exactly(values):
    f = series(values)
    assert cross_correlation(f, f) == autocorrelation(f)


@given(value_lists)
def test_autocorrelation_symmetric_and_peaked_at_zero(values):
    result = autocorrelation(series(values))
    for shift, value in zip(result.shifts, result.values):
        assert value == result.values[result.shifts.index(-shift)]
    assert result.values[result.shifts.index(0)] == max(result.values)


@given(value_lists, value_lists)
def test_cauchy_schwarz_at_zero(f_values, g_values):
    length = min(len(f_values), len(g_values))
    f = series(f_values[:length])
    g = series(g_values[:length])
    cross0, auto_f0, auto_g0 = (
        result.values[result.shifts.index(0)]
        for result in (cross_correlation(f, g), autocorrelation(f), autocorrelation(g))
    )
    assert cross0**2 <= auto_f0 * auto_g0 * (1 + 1e-12) + 1e-12


@given(value_lists)
def test_scaling_second_series_scales_values(values):
    f = series(values)
    g = series([v * 2.0 for v in values])  # power of two keeps products exact
    base = cross_correlation(f, f)
    scaled = cross_correlation(f, g)
    for b, s in zip(base.values, scaled.values):
        assert s == b * 2.0


class TestCompareWeeks:
    def test_self_comparison_is_all_zero(self):
        week = series([0.4, 0.9, 0.3, 0.7])
        report = compare_weeks(week, week)
        assert set(report.per_node_rel_diff_pct.values()) == {0.0}
        assert set(report.auto_cross_diff.values) == {0.0}
        assert report.dispersion_week1 == report.dispersion_week2

    def test_ten_percent(self):
        report = compare_weeks(series([0.50]), series([0.55]))
        assert report.per_node_rel_diff_pct[1] == pytest.approx(10.0, rel=1e-12)

    def test_metric_mismatch_rejected(self):
        with pytest.raises(DomainError):
            compare_weeks(series([1.0], metric="degree"), series([1.0], metric="pagerank"))

    def test_json_object_shape(self):
        report = compare_weeks(series([1.0, 2.0]), series([1.1, 2.2]))
        obj = report_json_obj(report)
        assert obj["metric"] == "closeness"
        assert set(obj["per_node_rel_diff_pct"]) == {"1", "2"}
        assert obj["auto"]["shifts"] == [-1, 0, 1]
        assert obj["dispersion"]["week1"]["variance"] == pytest.approx(0.25)
        assert obj["auto_cross_diff_pct"]["omitted_shifts"] == []
        assert obj["per_node_rel_diff_omitted"] == []

    def test_zero_baselines_omitted_and_listed(self):
        week1 = series([0.0, 2.0, 0.0, 4.0], metric="betweenness", ordering=[3, 5, 8, 9])
        week2 = series([1.0, 3.0, 0.0, 4.0], metric="betweenness", ordering=[3, 5, 8, 9])
        report = compare_weeks(week1, week2)
        assert report.per_node_rel_diff_pct == {5: 50.0, 9: 0.0}
        assert report.per_node_rel_diff_omitted == (3, 8)
        # the other measures still cover every node
        assert report.cross.values == cross_correlation(week1, week2).values
        assert report.dispersion_week1 == dispersion_of(week1.values)
        assert report_json_obj(report)["per_node_rel_diff_omitted"] == [3, 8]

    def test_all_zero_baseline(self):
        week = series([0.0, 0.0], metric="betweenness")
        report = compare_weeks(week, week)
        assert report.per_node_rel_diff_pct == {}
        assert report.per_node_rel_diff_omitted == (1, 2)
