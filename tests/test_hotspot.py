import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from gridhot.errors import CalibrationError, DomainError, EmptyInputError
from gridhot.hotspot import calibrate_p, compute_threshold, detect_hotspots
from gridhot.ingest import TimeWindow, TrafficAggregate

WINDOW = TimeWindow(0, 1_000)


def traffic(intensities):
    return TrafficAggregate(window=WINDOW, intensities=dict(intensities))

FOUR_CELLS = traffic({1: 10.0, 2: 20.0, 3: 30.0, 4: 100.0})


class TestComputeThreshold:
    def test_hand_example(self):
        spec = compute_threshold(FOUR_CELLS, 0.5)
        assert spec.mean_intensity == 40.0
        assert spec.max_traffic == 100.0
        assert spec.delta == 30.0
        assert spec.threshold == 70.0
        assert spec.n_areas == 4

    def test_flat_field_has_zero_delta(self):
        flat = traffic({1: 7.0, 2: 7.0, 3: 7.0})
        for p in (0.0, 0.3, 1.0):
            spec = compute_threshold(flat, p)
            assert spec.delta == 0.0
            assert spec.threshold == 7.0

    def test_p_zero_gives_mean(self):
        spec = compute_threshold(FOUR_CELLS, 0.0)
        assert spec.threshold == spec.mean_intensity == 40.0

    def test_empty_aggregate(self):
        with pytest.raises(EmptyInputError):
            compute_threshold(traffic({}), 0.5)

    def test_total_past_largest_float(self):
        big = traffic({1: 1e308, 2: 1e308, 3: 1.0})
        for run in (lambda: compute_threshold(big, 0.5), lambda: calibrate_p(big, 1)):
            with pytest.raises(DomainError, match="^the activity of all 3 cells sums past"):
                run()

    def test_largest_finite_total_kept(self):
        big = 1.7976931348623157e308
        spec = compute_threshold(traffic({1: big / 2, 2: big / 2}), 1.0)
        assert spec.mean_intensity == spec.threshold == big / 2

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(DomainError):
            compute_threshold(FOUR_CELLS, p)


class TestDetectHotspots:
    def test_hand_example(self):
        assert detect_hotspots(FOUR_CELLS, 0.5).members == (4,)

    def test_all_equal_all_hotspots(self):
        flat = traffic({1: 7.0, 2: 7.0, 3: 7.0})
        for p in (0.0, 0.5, 1.0):
            assert detect_hotspots(flat, p).members == (1, 2, 3)

    def test_p_zero_selects_above_mean(self):
        assert detect_hotspots(FOUR_CELLS, 0.0).members == (4,)

    def test_intensities_restricted_to_members(self):
        hotspots = detect_hotspots(FOUR_CELLS, 0.5)
        assert hotspots.intensities == {4: 100.0}
        assert not hotspots.truncated


class TestCalibrateP:
    def test_k_one_reaches_argmax_at_p_one(self):
        p, hotspots = calibrate_p(FOUR_CELLS, 1)
        assert p == 1.0
        assert hotspots.members == (4,)
        assert not hotspots.truncated

    def test_unreachable_k_reports_max(self):
        with pytest.raises(CalibrationError) as info:
            calibrate_p(FOUR_CELLS, 2)
        assert info.value.max_achievable == 1

    def test_all_equal_k_equals_n(self):
        flat = traffic({1: 7.0, 2: 7.0, 3: 7.0})
        p, hotspots = calibrate_p(flat, 3)
        assert p == 1.0
        assert hotspots.members == (1, 2, 3)

    def test_tie_forces_truncation(self):
        tied = traffic({1: 5.0, 2: 5.0, 3: 1.0})
        p, hotspots = calibrate_p(tied, 1)
        assert p == 1.0
        assert hotspots.truncated
        assert hotspots.members == (1,)  # intensity tie broken by ascending id

    def test_k_below_one(self):
        with pytest.raises(DomainError):
            calibrate_p(FOUR_CELLS, 0)

    def test_exact_count_when_reachable(self):
        spread = traffic({i: float(i) for i in range(1, 11)})
        for k in (1, 2, 3):
            p, hotspots = calibrate_p(spread, k)
            assert len(hotspots.members) == k
            assert not hotspots.truncated


intensity_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=500),
    values=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32),
    min_size=1,
    max_size=40,
)


@given(intensity_maps)
def test_members_non_increasing_in_p(intensities):
    agg = traffic(intensities)
    previous = None
    for i in range(11):
        members = set(detect_hotspots(agg, i / 10).members)
        if previous is not None:
            assert members <= previous
        previous = members


@given(intensity_maps, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_no_member_below_mean(intensities, p):
    agg = traffic(intensities)
    hotspots = detect_hotspots(agg, p)
    for cell in hotspots.members:
        assert intensities[cell] >= hotspots.spec.mean_intensity


@given(intensity_maps, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@example({1: 0.0, 2: 1.0}, 5e-324)
def test_scale_covariance_power_of_two(intensities, p):
    # scaling by a power of two is exact in binary floating point, except
    # where (max - mean) * p lands in the subnormal range and loses bits
    agg = traffic(intensities)
    scaled = traffic({cell: value * 4.0 for cell, value in intensities.items()})
    base_spec = compute_threshold(agg, p)
    scaled_spec = compute_threshold(scaled, p)
    assert scaled_spec.mean_intensity == base_spec.mean_intensity * 4.0
    assert scaled_spec.max_traffic == base_spec.max_traffic * 4.0
    product_exact = (
        p == 0.0
        or base_spec.max_traffic == base_spec.mean_intensity
        or abs(base_spec.delta) >= sys.float_info.min
    )
    if product_exact:
        assert scaled_spec.delta == base_spec.delta * 4.0
        assert scaled_spec.threshold == base_spec.threshold * 4.0
    assert detect_hotspots(scaled, p).members == detect_hotspots(agg, p).members


def test_scale_covariance_random_factor():
    rng = random.Random(42)
    for _ in range(50):
        intensities = {cell: rng.uniform(0, 1000) for cell in range(1, rng.randint(2, 30))}
        agg = traffic(intensities)
        p = rng.random()
        base = detect_hotspots(agg, p).members
        for factor in (0.5, 3.0):
            scaled = traffic({c: v * factor for c, v in intensities.items()})
            assert detect_hotspots(scaled, p).members == base


def test_p_one_selects_argmax_set():
    rng = random.Random(7)
    for _ in range(100):
        intensities = {cell: rng.uniform(0, 100) for cell in range(1, rng.randint(2, 25))}
        agg = traffic(intensities)
        members = detect_hotspots(agg, 1.0).members
        top = max(intensities.values())
        argmax = tuple(sorted(c for c, v in intensities.items() if v == top))
        assert members == argmax
