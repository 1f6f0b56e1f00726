import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rbu import (
    ParameterError,
    PotentialField,
    RbfParams,
    init_field,
    mutual_potential,
    potential_grid,
    neighbors,
    rbf_value,
)
from rbu.potential import check_gamma
from rbu.radial import RbuParams

from oracles import make_task, naive_potential, random_task

finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
point2 = st.tuples(finite_coord, finite_coord)


GAMMA_TASK = make_task([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5]])

# Every public entry that takes a spread, called with a valid everything else.
GAMMA_ENTRIES = {
    "RbfParams": lambda gamma: RbfParams(gamma),
    "rbf_value": lambda gamma: rbf_value(1.0, gamma),
    "mutual_potential": lambda gamma: mutual_potential([0.2, 0.3], GAMMA_TASK, gamma),
    "init_field": lambda gamma: init_field(GAMMA_TASK, gamma),
    "PotentialField": lambda gamma: PotentialField(GAMMA_TASK.majority, np.zeros(3), gamma),
    "potential_grid": lambda gamma: potential_grid(GAMMA_TASK, gamma, ((0, 1), (0, 1)), 3),
    "RbuParams": lambda gamma: RbuParams(gamma, 1.0),
}


class TestGammaRule:
    """One rule for the spread: 1/gamma^2 must be a finite positive float."""

    @pytest.mark.parametrize("entry", GAMMA_ENTRIES)
    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, -np.inf, 1e-160, 1e-300, 1e160])
    @pytest.mark.parametrize("as_numpy", [False, True])
    def test_refused_without_warning(self, entry, gamma, as_numpy):
        gamma = np.float64(gamma) if as_numpy else gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="gamma must"):
                GAMMA_ENTRIES[entry](gamma)

    @pytest.mark.parametrize("entry", GAMMA_ENTRIES)
    @pytest.mark.parametrize("gamma", [1e-150, 1e150])
    def test_extreme_finite_scales_accepted(self, entry, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GAMMA_ENTRIES[entry](gamma)

    def test_returns_the_scale(self):
        assert check_gamma(0.5) == 4.0
        assert check_gamma(np.float64(0.3)) == 1.0 / (0.3 * 0.3)

    def test_potentials_at_extreme_scales(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Every other point is so far that its d^2/gamma^2 overflows: only
            # the point itself counts.
            assert mutual_potential([0.0, 0.0], GAMMA_TASK, 1e-150) == 1.0
            assert init_field(GAMMA_TASK, 1e-150).phi.tolist() == [1.0, 1.0, 1.0]
            # Every RBF is 1 up to rounding: three majority minus one minority.
            assert mutual_potential([0.0, 0.0], GAMMA_TASK, 1e150) == 2.0


class TestRbfValue:
    def test_zero_distance(self):
        assert rbf_value(0.0, 0.37) == 1.0

    def test_unit_values(self):
        assert rbf_value(1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
        assert rbf_value(2.0, 1.0) == pytest.approx(math.exp(-4), rel=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(ParameterError):
            rbf_value(1.0, 0.0)
        with pytest.raises(ParameterError):
            rbf_value(1.0, -2.0)
        with pytest.raises(ParameterError):
            RbfParams(gamma=0.0)

    def test_negative_distance(self):
        with pytest.raises(ParameterError):
            rbf_value(-0.1, 1.0)

    def test_nan_distance_refused(self):
        with pytest.raises(ParameterError, match="distance"):
            rbf_value(float("nan"), 1.0)

    @pytest.mark.parametrize(
        "distance, gamma",
        [(1e200, 1.0), (1e10, 1e-150), (math.inf, 1.0), (np.float64(1e200), np.float64(1.0))],
    )
    def test_ratio_past_float_range_gives_zero(self, distance, gamma):
        assert rbf_value(distance, gamma) == 0.0

    def test_squares_the_ratio_with_pow(self):
        # 2.759 * 2.759 and 2.759 ** 2 differ in the last bit, and so do
        # their exp(-x); the value keeps ** 2.
        assert 2.759 * 2.759 != 2.759**2
        assert rbf_value(2.759, 1.0) == math.exp(-(2.759**2))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=100, allow_nan=False),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=0.01, max_value=50),
    )
    def test_monotone_in_gamma(self, distance, g1, g2):
        lo, hi = sorted((g1, g2))
        assume(hi >= 1.01 * lo)
        assume((distance / lo) ** 2 < 700)  # keep exp() away from underflow
        assert rbf_value(distance, hi) > rbf_value(distance, lo)


class TestMutualPotential:
    def test_single_majority_no_minority(self):
        task = make_task([[1.0, 2.0]], [])
        assert mutual_potential([1.0, 2.0], task, 1.0) == 1.0

    def test_coincident_pair_cancels_everywhere(self):
        task = make_task([[0.5, -1.0]], [[0.5, -1.0]])
        for x in ([0.0, 0.0], [3.0, 4.0], [0.5, -1.0]):
            assert mutual_potential(x, task, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_equidistant_terms_cancel(self):
        task = make_task([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
        assert mutual_potential([0.0, 0.0], task, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_oracle_value(self):
        # independently computed by high-precision scalar summation
        task = make_task([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
        value = mutual_potential([0.5, 0.0], task, 2.0)
        assert value == pytest.approx(1.1472104966803098, abs=1e-12)

    def test_dimension_mismatch(self):
        task = make_task([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ParameterError):
            mutual_potential([0.0, 0.0, 0.0], task, 1.0)

    def test_empty_minority_subtracts_nothing(self):
        rng = np.random.default_rng(8)
        majority = rng.normal(size=(9, 3))
        x, gamma = rng.normal(size=3), 1.3
        majority_sum = np.exp(cdist([x], majority, "sqeuclidean") * (-1.0 / (gamma * gamma))).sum()
        assert mutual_potential(x, make_task(majority, []), gamma) == majority_sum

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_refused(self, value):
        majority, minority = [[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]]
        for point, task in (
            ([value, 0.0], make_task(majority, minority)),
            ([0.5, 0.0], make_task([[0.0, 0.0], [value, 0.0]], minority)),
            ([0.5, 0.0], make_task(majority, [[0.0, value]])),
        ):
            with pytest.raises(ParameterError, match="finite"):
                mutual_potential(point, task, 2.0)

    def test_agrees_with_naive_oracle(self):
        rng = np.random.default_rng(7)
        task = random_task(rng, 40, 15, 4)
        x = rng.normal(size=4)
        expected = naive_potential(x, task.majority, task.minority, 0.9)
        assert mutual_potential(x, task, 0.9) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(point2, min_size=1, max_size=8),
        st.lists(point2, min_size=0, max_size=8),
        point2,
        st.floats(min_value=0.05, max_value=20),
    )
    def test_class_swap_antisymmetry(self, majority, minority, x, gamma):
        task = make_task(majority, minority if minority else [])
        swapped = make_task(
            task.minority if len(task.minority) else np.empty((0, 2)), task.majority
        )
        forward = mutual_potential(list(x), task, gamma)
        backward = mutual_potential(list(x), swapped, gamma)
        assert forward == pytest.approx(-backward, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(point2, min_size=1, max_size=8),
        st.lists(point2, min_size=1, max_size=8),
        point2,
        point2,
        st.floats(min_value=0.05, max_value=20),
    )
    def test_translation_invariance(self, majority, minority, x, shift, gamma):
        task = make_task(majority, minority)
        shift = np.asarray(shift)
        moved = make_task(task.majority + shift, task.minority + shift)
        before = mutual_potential(np.asarray(x), task, gamma)
        after = mutual_potential(np.asarray(x) + shift, moved, gamma)
        assert after == pytest.approx(before, abs=1e-12)


class TestInitField:
    def test_single_point_field(self):
        field = init_field(make_task([[3.0, 4.0]], []), 2.0)
        np.testing.assert_allclose(field.phi, [1.0])

    def test_three_one_instance(self):
        # values frozen from the brute-force scalar oracle
        task = make_task([[0.0, 0.0], [0.1, 0.0], [2.0, 0.0]], [[2.1, 0.0]])
        field = init_field(task, 1.0)
        np.testing.assert_allclose(
            field.phi,
            [1.9962102943079873, 1.9987860417267843, 0.0553176520059165],
            rtol=0,
            atol=1e-9,
        )

    def test_bounds_hold_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            task = random_task(rng, 30, 10, 3)
            field = init_field(task, 0.5)
            assert np.all(field.phi >= 1 - task.n_minority - 1e-12)
            assert np.all(field.phi <= task.n_majority + 1e-12)

    def test_nan_coordinate_refused(self):
        majority = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [np.nan, 0.0], [4.0, 0.0]]
        with pytest.raises(ParameterError, match="finite"):
            init_field(make_task(majority, [[0.5, 0.5]]), 1.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_coordinate_refused(self, value):
        with pytest.raises(ParameterError, match="finite"):
            init_field(make_task([[0.0, 0.0], [1.0, 0.0]], [[0.0, value]]), 1.0)

    def test_overflowing_centred_norm_refused(self):
        task = make_task([[0.0, 0.0], [1e200, 0.0], [2.0, 0.0]], [[0.5, 0.5]])
        with pytest.raises(ParameterError, match="overflow"):
            init_field(task, 1.0)

    def test_overflowing_scaled_norm_refused(self):
        # Centred squared norms near 1e303 are finite, but not once divided
        # by gamma^2 = 1e-6.  Accepted, they would give the greedy loop NaN
        # potentials and a removal order that repeats indices.
        rng = np.random.default_rng(0)
        task = make_task(rng.normal(size=(6, 2)) * 3e151, rng.normal(size=(2, 2)) * 3e151)
        with pytest.raises(ParameterError, match="coordinates too large"):
            init_field(task, 1e-3)
        assert mutual_potential(task.majority[0], task, 1e-3) == 1.0

    def test_matches_mutual_potential_per_point(self):
        rng = np.random.default_rng(11)
        task = random_task(rng, 12, 5, 2)
        field = init_field(task, 1.3)
        for i in range(task.n_majority):
            assert field.phi[i] == pytest.approx(
                mutual_potential(task.majority[i], task, 1.3), abs=1e-9
            )


class TestPopMax:
    def _field(self, phi):
        points = np.arange(len(phi), dtype=float)[:, None]
        return PotentialField(points, np.array(phi, dtype=float), gamma=1.0)

    def test_picks_max(self):
        field = self._field([0.2, 0.9, 0.5])
        point, index = field.pop_max()
        assert index == 1 and point[0] == 1.0
        assert len(field) == 2
        assert field.removed_count == 1

    def test_tie_goes_to_lowest_index(self):
        field = self._field([0.7, 0.7])
        _, index = field.pop_max()
        assert index == 0

    def test_indices_stay_original_after_removals(self):
        field = self._field([0.3, 0.9, 0.8])
        assert field.pop_max()[1] == 1
        assert field.pop_max()[1] == 2
        assert field.pop_max()[1] == 0

    def test_non_finite_potentials_refused(self):
        with pytest.raises(ParameterError, match="finite"):
            self._field([0.1, np.nan])

    def test_single_element_then_empty(self):
        field = self._field([0.4])
        _, index = field.pop_max()
        assert index == 0 and len(field) == 0
        with pytest.raises(ParameterError):
            field.pop_max()

    def test_seeded_random_tie_rule(self):
        picks = set()
        for seed in range(10):
            field = self._field([0.5, 0.5, 0.1])
            rng = np.random.default_rng(seed)
            _, index = field.pop_max(tie_rule="seeded-random", rng=rng)
            picks.add(index)
        assert picks <= {0, 1}  # only tied entries are candidates
        assert len(picks) == 2  # both get chosen across seeds

    def test_seeded_random_requires_rng(self):
        with pytest.raises(ParameterError):
            self._field([0.1]).pop_max(tie_rule="seeded-random")

    def test_unknown_tie_rule(self):
        with pytest.raises(ParameterError):
            self._field([0.1]).pop_max(tie_rule="coin-flip")


class TestSubtract:
    def test_distance_zero_subtracts_one(self):
        task = make_task([[0.0, 0.0], [1.0, 1.0]], [])
        field = init_field(task, 1.0)
        before = field.phi.copy()
        point, _ = field.pop_max()
        field.subtract(point)
        remaining = field.phi[0]
        # the removed point sat at distance sqrt(2) from the survivor
        assert before[1] - remaining == pytest.approx(math.exp(-2.0), rel=1e-12)
        field2 = init_field(make_task([[5.0, 5.0]], []), 1.0)
        field2.subtract(np.array([5.0, 5.0]))
        assert field2.phi[0] == pytest.approx(0.0, abs=1e-15)

    def test_far_point_changes_nothing_measurable(self):
        field = init_field(make_task([[0.0, 0.0]], []), 1.0)
        field.subtract(np.array([1e6, 1e6]))
        assert field.phi[0] == pytest.approx(1.0, abs=1e-300)

    def test_dimension_mismatch(self):
        field = init_field(make_task([[0.0, 0.0]], []), 1.0)
        with pytest.raises(ParameterError):
            field.subtract(np.array([1.0, 2.0, 3.0]))

    def test_subtractions_match_naive_recomputation(self):
        rng = np.random.default_rng(42)
        task = random_task(rng, 60, 20, 6)
        gamma = 0.8
        field = init_field(task, gamma)
        for _ in range(25):
            point, _ = field.pop_max()
            field.subtract(point)
            alive = field.alive_indices
            reduced = make_task(task.majority[alive], task.minority)
            fresh = init_field(reduced, gamma)
            np.testing.assert_allclose(field.phi, fresh.phi, rtol=0, atol=1e-9)


class TestPotentialGrid:
    def test_single_point_peaks_at_center(self):
        task = make_task([[0.0, 0.0]], [])
        grid = potential_grid(task, 1.0, ((-1.0, 1.0), (-1.0, 1.0)), 5)
        peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert peak == (2, 2)

    def test_class_swap_negates_grid(self):
        rng = np.random.default_rng(5)
        task = random_task(rng, 6, 3, 2)
        swapped = make_task(task.minority, task.majority)
        bounds = ((-2.0, 2.0), (-2.0, 2.0))
        one = potential_grid(task, 1.5, bounds, 8)
        other = potential_grid(swapped, 1.5, bounds, 8)
        np.testing.assert_allclose(one.values, -other.values, rtol=0, atol=1e-12)

    def test_2x2_matches_direct_calls(self):
        task = make_task([[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0]])
        grid = potential_grid(task, 0.9, ((0.0, 2.0), (0.0, 2.0)), 2)
        xs, ys = grid.cell_centers()
        for i in range(2):
            for j in range(2):
                expected = mutual_potential([xs[i], ys[j]], task, 0.9)
                assert grid.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_errors(self):
        task3d = make_task([[0.0, 0.0, 0.0]], [])
        with pytest.raises(ParameterError, match="2-D"):
            potential_grid(task3d, 1.0, ((0, 1), (0, 1)), 4)
        task = make_task([[0.0, 0.0]], [])
        with pytest.raises(ParameterError, match="resolution"):
            potential_grid(task, 1.0, ((0, 1), (0, 1)), 1)
        with pytest.raises(ParameterError, match="bounds"):
            potential_grid(task, 1.0, ((1, 0), (0, 1)), 4)

    @pytest.mark.parametrize(
        "bounds",
        [
            ((0.0, np.inf), (0.0, 1.0)),
            ((0.0, 1.0), (-np.inf, 1.0)),
            ((-1e308, 1e308), (0.0, 1.0)),  # finite bounds, infinite cell width
            ((0.0, 1.0), (-1e308, 1e308)),
        ],
    )
    def test_non_finite_bounds_or_cell_width_refused(self, bounds):
        task = make_task([[0.0, 0.0]], [[0.5, 0.5]])
        with pytest.raises(ParameterError, match="bounds and their cell widths"):
            potential_grid(task, 1.0, bounds, 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinate_refused(self, value):
        for task in (
            make_task([[0.0, 0.0], [value, 1.0]], [[0.5, 0.5]]),
            make_task([[0.0, 0.0]], [[0.5, value]]),
        ):
            with pytest.raises(ParameterError, match="finite"):
                potential_grid(task, 1.0, ((0, 1), (0, 1)), 4)

    def test_csv_and_json_forms(self):
        task = make_task([[0.5, 0.5]], [[0.2, 0.8]])
        grid = potential_grid(task, 1.0, ((0.0, 1.0), (0.0, 1.0)), 3)
        lines = grid.to_csv().strip().splitlines()
        assert lines[0] == "x,y,phi"
        assert len(lines) == 1 + 9
        x0, y0, phi0 = (float(v) for v in lines[1].split(","))
        assert (x0, y0) == (grid.cell_centers()[0][0], grid.cell_centers()[1][0])
        assert phi0 == pytest.approx(grid.values[0, 0], rel=1e-15)
        doc = json.loads(grid.to_json())
        assert doc["resolution"] == 3
        np.testing.assert_allclose(np.array(doc["values"]), grid.values)


@pytest.mark.parametrize("block", ["one row", "three rows"])
def test_row_blocks_leave_every_potential_bit_identical(block, monkeypatch):
    rng = np.random.default_rng(31)
    task = random_task(rng, 40, 15, 2)
    queries = rng.normal(size=(6, 2))
    bounds = ((-4.0, 5.0), (-4.0, 5.0))

    def outputs():
        return (
            init_field(task, 0.8).phi,
            np.array([mutual_potential(x, task, 0.8) for x in queries]),
            potential_grid(task, 0.8, bounds, 7).values,
        )

    whole = outputs()  # 40 points per row: every call fits one default block
    monkeypatch.setattr(neighbors, "_BLOCK", 1 if block == "one row" else 3 * 40)
    for blocked, unblocked in zip(outputs(), whole):
        np.testing.assert_array_equal(blocked, unblocked)
