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
    init_field,
    mutual_potential,
    potential_grid,
    neighbors,
)
from rbu import potential
from rbu.potential import _EXP_FLOOR, _GATHER_SHARE, _exp_in_place, check_gamma
from rbu.radial import RbuParams

from oracles import make_task, naive_potential, naive_rbu_trace, random_task, random_task_for_gamma

finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
point2 = st.tuples(finite_coord, finite_coord)


GAMMA_TASK = make_task([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5]])

# Every public entry that takes a spread, called with a valid everything else.
GAMMA_ENTRIES = {
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
    """One RBF contribution exp(-(d / gamma)^2), read as the potential at
    distance d from a majority of one point."""

    @staticmethod
    def rbf(distance, gamma):
        return mutual_potential([distance, 0.0], make_task([[0.0, 0.0]], []), gamma)

    def test_zero_distance(self):
        assert self.rbf(0.0, 0.37) == 1.0

    def test_unit_values(self):
        assert self.rbf(1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
        assert self.rbf(2.0, 1.0) == pytest.approx(math.exp(-4), rel=1e-12)

    def test_invalid_gamma(self):
        with pytest.raises(ParameterError):
            self.rbf(1.0, 0.0)
        with pytest.raises(ParameterError):
            self.rbf(1.0, -2.0)

    def test_nan_distance_refused(self):
        with pytest.raises(ParameterError, match="finite"):
            self.rbf(float("nan"), 1.0)

    @pytest.mark.parametrize(
        "distance, gamma",
        [(1e200, 1.0), (1e10, 1e-150), (np.float64(1e200), np.float64(1.0))],
    )
    def test_ratio_past_float_range_gives_zero(self, distance, gamma):
        assert self.rbf(distance, gamma) == 0.0

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
        assert self.rbf(distance, hi) > self.rbf(distance, lo)


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

    def test_overflowing_squared_distance_matches_mutual_potential(self):
        # The squared distances to the far point overflow to inf: its RBF at
        # the others, and theirs at it, is exactly 0.
        task = make_task([[0.0, 0.0], [1e200, 0.0], [2.0, 0.0]], [[0.5, 0.5]])
        with np.errstate(over="ignore"):
            naive_order = naive_rbu_trace(task.majority, task.minority, 1.0, 1.0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = init_field(task, 1.0)
            expected = [mutual_potential(p, task, 1.0) for p in task.majority]
            assert field.phi.tolist() == expected
            assert field.pop_greedy(2).tolist() == naive_order

    def test_overflowing_scaled_distance_matches_mutual_potential(self):
        # Squared distances near 1e303 are finite, but not once divided by
        # gamma^2 = 1e-6: every point sees only itself.
        rng = np.random.default_rng(0)
        task = make_task(rng.normal(size=(6, 2)) * 3e151, rng.normal(size=(2, 2)) * 3e151)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = init_field(task, 1e-3)
            assert field.phi.tolist() == [1.0] * 6
            assert mutual_potential(task.majority[0], task, 1e-3) == 1.0
            assert field.pop_greedy(6).tolist() == list(range(6))

    def test_matches_mutual_potential_per_point(self):
        # One arithmetic: each potential is mutual_potential's, bit for bit,
        # for two clusters up to 1e12 apart.
        rng = np.random.default_rng(11)
        for span in (0.0, 1.0, 1e4, 1e8, 1e12):
            for m in range(1, 9):
                task = random_task(rng, 12, 5, m, spread=1.0)
                far = np.zeros(m)
                far[0] = span
                task = make_task(task.majority + rng.integers(0, 2, (12, 1)) * far,
                                 task.minority + rng.integers(0, 2, (5, 1)) * far)
                field = init_field(task, 1.3)
                expected = [mutual_potential(p, task, 1.3) for p in task.majority]
                assert np.array_equal(field.phi, expected)


class TestPopMax:
    """``pop_greedy(1)``: one removal of a maximal potential."""

    def _field(self, phi):
        points = np.arange(len(phi), dtype=float)[:, None]
        return PotentialField(points, np.array(phi, dtype=float), gamma=1.0)

    def test_picks_max(self):
        field = self._field([0.2, 0.9, 0.5])
        assert field.pop_greedy(1).tolist() == [1]
        assert len(field) == 2
        assert field.removed_count == 1

    def test_tie_goes_to_lowest_index(self):
        field = self._field([0.7, 0.7])
        assert field.pop_greedy(1).tolist() == [0]

    def test_indices_stay_original_after_removals(self):
        field = self._field([0.3, 0.9, 0.8])
        assert field.pop_greedy(1).tolist() == [1]
        assert field.pop_greedy(1).tolist() == [2]
        assert field.pop_greedy(1).tolist() == [0]

    def test_non_finite_potentials_refused(self):
        with pytest.raises(ParameterError, match="finite"):
            self._field([0.1, np.nan])

    def test_single_element_then_empty(self):
        field = self._field([0.4])
        assert field.pop_greedy(1).tolist() == [0] and len(field) == 0
        with pytest.raises(ParameterError):
            field.pop_greedy(1)

    def test_seeded_random_tie_rule(self):
        picks = set()
        for seed in range(10):
            field = self._field([0.5, 0.5, 0.1])
            rng = np.random.default_rng(seed)
            picks.add(int(field.pop_greedy(1, tie_rule="seeded-random", rng=rng)[0]))
        assert picks <= {0, 1}  # only tied entries are candidates
        assert len(picks) == 2  # both get chosen across seeds

    def test_seeded_random_requires_rng(self):
        with pytest.raises(ParameterError):
            self._field([0.1]).pop_greedy(1, tie_rule="seeded-random")

    def test_unknown_tie_rule(self):
        with pytest.raises(ParameterError):
            self._field([0.1]).pop_greedy(1, tie_rule="coin-flip")


class TestFieldConstruction:
    """The constructor refuses what the greedy loop cannot use."""

    def test_rows_must_match_potentials(self):
        with pytest.raises(ParameterError, match="one row per potential"):
            PotentialField(np.zeros((3, 2)), np.zeros(2), 1.0)

    def test_points_must_be_2d(self):
        with pytest.raises(ParameterError, match="2-D points"):
            PotentialField(np.zeros(3), np.zeros(3), 1.0)

    def test_overflowing_points_give_the_naive_update(self):
        # The far point's squared distances overflow to inf, so its removal
        # subtracts exactly 0; point 2's then subtracts e^-1 from point 0.
        points = np.array([[0.0, 0.0], [1e300, 0.0], [1.0, 0.0]])
        field = PotentialField(points, np.array([1.0, 3.0, 2.0]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert field.pop_greedy(2).tolist() == [1, 2]
        assert field.phi.tolist() == [1.0 - math.exp(-1.0)]


class TestSubtract:
    """Each removal subtracts the removed point's RBF from the rest."""

    def test_distance_zero_subtracts_one(self):
        task = make_task([[0.0, 0.0], [1.0, 1.0]], [])
        field = init_field(task, 1.0)
        before = field.phi.copy()
        field.pop_greedy(1)
        remaining = field.phi[0]
        # the removed point sat at distance sqrt(2) from the survivor
        assert before[1] - remaining == pytest.approx(math.exp(-2.0), rel=1e-12)
        field2 = init_field(make_task([[5.0, 5.0], [5.0, 5.0]], []), 1.0)
        field2.pop_greedy(1)
        assert field2.phi[0] == pytest.approx(1.0, abs=1e-15)

    def test_far_point_changes_nothing_measurable(self):
        field = init_field(make_task([[0.0, 0.0], [1e6, 1e6]], []), 1.0)
        assert field.pop_greedy(1).tolist() == [0]
        assert field.phi[0] == pytest.approx(1.0, abs=1e-300)

    def test_subtractions_match_naive_recomputation(self):
        rng = np.random.default_rng(42)
        task = random_task(rng, 60, 20, 6)
        gamma = 0.8
        field = init_field(task, gamma)
        removed = []
        for _ in range(25):
            removed.extend(field.pop_greedy(1))
            alive = np.delete(np.arange(task.n_majority), removed)
            reduced = make_task(task.majority[alive], task.minority)
            fresh = init_field(reduced, gamma)
            np.testing.assert_allclose(field.phi, fresh.phi, rtol=0, atol=1e-9)


class TestFarPoints:
    """A removed point far from every other contributes exactly 0."""

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
    def test_points_beyond_the_exp_floor_match_the_oracle(self, gamma):
        # The task spans a few gamma; x, the point removed, goes from inside
        # it to far past the exp floor (27.3 gamma).
        rng = np.random.default_rng(51)
        task = random_task_for_gamma(rng, 12, 1, 2, gamma)
        for distance in (0.5, 5.0, 20.0, 28.0, 40.0, 80.0, 300.0):
            before = init_field(task, gamma).phi
            x = np.array([distance * gamma, 0.0]) + task.majority.mean(axis=0)
            # x's potential is the highest, so the greedy loop removes it first.
            phi = np.append(before, task.n_majority + 1.0)
            field = PotentialField(np.vstack([task.majority, x]), phi, gamma)
            assert field.pop_greedy(1).tolist() == [task.n_majority]
            rbf = [math.exp(-((float(np.linalg.norm(p - x)) / gamma) ** 2)) for p in task.majority]
            np.testing.assert_allclose(field.phi, before - rbf, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, value):
        # Accepted, a NaN point let the greedy loop return an order with no error.
        with pytest.raises(ParameterError, match="finite"):
            PotentialField(np.array([[0.0, 0.0], [value, 0.0]]), np.array([1.0, 2.0]), 1.0)


class TestExpInPlace:
    @pytest.mark.parametrize("share", [0.0, 0.01, 0.037, _GATHER_SHARE, 0.2, 0.8, 1.0])
    def test_equals_numpy_exp_bit_for_bit(self, share):
        # Blocks on both sides of the gather crossover, with results down to
        # subnormals and dead arguments from just below the floor to -inf.
        rng = np.random.default_rng(17)
        arg = -rng.uniform(0.0, -_EXP_FLOOR, size=(21, 400))
        arg[0, :3] = [0.0, -745.1, -745.13]
        dead = rng.random(arg.shape) >= share
        dead[0, :3] = False
        arg[dead] = -rng.uniform(-_EXP_FLOOR, 1e6, size=dead.sum())
        arg[dead & (rng.random(arg.shape) < 0.1)] = -np.inf
        got = arg.copy()
        assert _exp_in_place(got) is got
        assert got.tobytes() == np.exp(arg).tobytes()

    def test_empty_block(self):
        assert _exp_in_place(np.empty((0, 4))).shape == (0, 4)


def count_updates(monkeypatch):
    """A list that gains one entry for each greedy update run from now on:
    each update ends with one ``np.subtract`` in ``rbu.potential``."""
    updates = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def subtract(*args, **kwargs):
            updates.append(None)
            return np.subtract(*args, **kwargs)

    monkeypatch.setattr(potential, "np", CountingNumpy())
    return updates


def count_row_calls(monkeypatch):
    """A list that gains the number of query rows of each distance call that
    ``rbu.potential`` makes from now on."""
    calls = []

    def counting_blocks(queries, *args, **kwargs):
        calls.append(len(queries))
        return neighbors.for_each_block(queries, *args, **kwargs)

    monkeypatch.setattr(potential, "for_each_block", counting_blocks)
    return calls


def dense_reference_order(task, gamma, count, tie_rule, seed):
    """Greedy removal order and final potentials, with every update a whole
    ``cdist`` row over the field and a seeded-random pick that always calls
    ``rng.choice``."""
    inv_g2 = check_gamma(gamma)
    phi = init_field(task, gamma).phi.copy()
    rng = np.random.default_rng(seed)
    order = []
    for _ in range(count):
        if tie_rule == "lowest-index":
            index = int(phi.argmax())
        else:
            index = int(rng.choice(np.flatnonzero(phi == phi.max())))
        order.append(index)
        phi[index] = -np.inf
        with np.errstate(over="ignore"):
            arg = cdist(task.majority[index : index + 1], task.majority, "sqeuclidean")[0] * -inv_g2
        phi -= np.exp(arg)
    return order, phi


def scattered_task():
    """30 majority points of N(0, 1) in 6-D and 10 minority points: at gamma
    0.1 many pairs lie within the exp floor, and every RBF between two of
    them is far below half an ulp of 1.0."""
    return random_task(np.random.default_rng(5), 30, 10, 6, spread=1.0)


@st.composite
def clustered_tasks(draw):
    """A task of 1 to 4 clusters of spread 1 in 1 to 5 dimensions, and a
    gamma from 1e-3 to 2.5.  Rounded coordinates make exact ties and
    repeated points; majority points placed on minority points have
    potentials near 0; the whole task may sit up to 1e6 from the origin.
    Small gammas leave most points beyond the exp floor of each other, so
    that steps go quiet."""
    m = draw(st.integers(1, 5))
    clusters = draw(st.integers(1, 4))
    n_majority = draw(st.integers(2, 60))
    n_minority = draw(st.integers(1, n_majority))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(0.0, draw(st.sampled_from([0.0, 3.0, 30.0])), size=(clusters, m))
    points = centres[rng.integers(0, clusters, n_majority + n_minority)]
    points = points + rng.normal(size=points.shape)
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        points = points.round(decimals)
    majority, minority = points[:n_majority], points[n_majority:]
    on_minority = draw(st.integers(0, n_minority))
    majority[:on_minority] = minority[:on_minority]
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    gamma = 10.0 ** (draw(st.integers(-30, 3)) / 10 + draw(st.floats(0.0, 0.1)))
    return make_task(majority + offset, minority + offset), gamma


class TestPopGreedy:
    @settings(derandomize=True, deadline=None)
    @given(
        clustered_tasks(),
        st.sampled_from(["lowest-index", "seeded-random"]),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    def test_matches_dense_reference_on_clustered_tasks(self, task_gamma, tie_rule, seed, share):
        task, gamma = task_gamma
        count = round(share * task.n_majority)
        field = init_field(task, gamma)
        order = field.pop_greedy(count, tie_rule, np.random.default_rng(seed))
        expected, phi = dense_reference_order(task, gamma, count, tie_rule, seed)
        assert order.tolist() == expected
        assert field._phi.tobytes() == phi.tobytes()

    @pytest.mark.parametrize("tie_rule", ["lowest-index", "seeded-random"])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 4.0])
    def test_matches_dense_reference_bit_for_bit(self, gamma, tie_rule):
        # Integer coordinates make exact ties; at gamma 0.3 most pairs lie
        # beyond the exp floor, so the update skips most of the field.
        rng = np.random.default_rng(52)
        task = make_task(rng.integers(0, 6, size=(40, 3)), rng.integers(0, 6, size=(9, 3)))
        field = init_field(task, gamma)
        order = field.pop_greedy(40, tie_rule, np.random.default_rng(7))
        expected, phi = dense_reference_order(task, gamma, 40, tie_rule, 7)
        assert order.tolist() == expected
        np.testing.assert_array_equal(field._phi, phi)
        assert len(field) == 0 and field.removed_count == 40

    @pytest.mark.parametrize("tie_rule", ["lowest-index", "seeded-random"])
    def test_single_steps_match_one_call(self, tie_rule, monkeypatch):
        rng = np.random.default_rng(53)
        spread = random_task(rng, 30, 10, 4)
        # At gamma 0.05 the ten pairs lie within a few gamma of each other and
        # far from everything else: a mix of quiet and updating steps.
        majority = spread.majority.copy()
        majority[20:] = majority[:10] + rng.normal(0.0, 0.05, size=(10, 4))
        paired = make_task(majority, spread.minority)
        updates = count_updates(monkeypatch)
        for task, gamma, count, quiet in ((spread, 0.9, 12, False), (paired, 0.05, 20, True)):
            greedy = init_field(task, gamma)
            updates.clear()
            order = greedy.pop_greedy(count, tie_rule, np.random.default_rng(3))
            assert (0 < len(updates) < count) if quiet else len(updates) == count
            stepwise, steps_rng = init_field(task, gamma), np.random.default_rng(3)
            for index in order:
                assert stepwise.pop_greedy(1, tie_rule, steps_rng).tolist() == [index]
            assert greedy._phi.tobytes() == stepwise._phi.tobytes()
            assert len(greedy) == len(stepwise) == 30 - count

    @pytest.mark.parametrize("tie_rule", ["lowest-index", "seeded-random"])
    def test_quiet_steps_skip_the_update(self, tie_rule, monkeypatch):
        # 8-D points of spread 1 at gamma 0.05 lie far beyond the exp floor
        # of each other, save the ten near pairs.
        rng = np.random.default_rng(54)
        task = random_task(rng, 200, 60, 8, spread=1.0)
        majority = task.majority.copy()
        majority[190:] = majority[:10] + rng.normal(0.0, 0.05, size=(10, 8))
        task = make_task(majority, task.minority)
        field = init_field(task, 0.05)
        updates = count_updates(monkeypatch)
        order = field.pop_greedy(140, tie_rule, np.random.default_rng(5))
        assert 0 < len(updates) <= 20
        expected, phi = dense_reference_order(task, 0.05, 140, tie_rule, 5)
        assert order.tolist() == expected
        assert field._phi.tobytes() == phi.tobytes()

    @pytest.mark.parametrize("ahead_rows", [0, potential._AHEAD_ROWS])
    @pytest.mark.parametrize("tie_rule", ["lowest-index", "seeded-random"])
    def test_dropping_removed_rows_keeps_every_bit(self, tie_rule, ahead_rows, monkeypatch):
        # 300 points with exact ties, every step an update: the stored rows
        # are dropped several times, within a call and across calls.  With
        # rows taken ahead, most updates use a row taken by an earlier call.
        monkeypatch.setattr(potential, "_AHEAD_ROWS", ahead_rows)
        rng = np.random.default_rng(55)
        task = make_task(rng.integers(0, 6, size=(300, 3)), rng.integers(0, 6, size=(40, 3)))
        field = init_field(task, 1.0)
        calls = count_row_calls(monkeypatch)
        order = field.pop_greedy(250, tie_rule, np.random.default_rng(8))
        if ahead_rows:
            assert len(calls) < 125 and set(calls) == {potential._AHEAD + 1}
        else:
            assert calls == [1] * 250
        expected, phi = dense_reference_order(task, 1.0, 250, tie_rule, 8)
        assert order.tolist() == expected
        assert field._phi.tobytes() == phi.tobytes()
        assert len(field._rows) < 300 - potential._STALE_MIN
        stepwise, steps_rng = init_field(task, 1.0), np.random.default_rng(8)
        for index in order:
            assert stepwise.pop_greedy(1, tie_rule, steps_rng).tolist() == [index]
        assert stepwise._phi.tobytes() == phi.tobytes()

    def test_last_pick_after_rows_ahead_empties_the_field(self, monkeypatch):
        # Every potential is exactly 1.0, so the picks run in index order and
        # each 16th misses the rows taken ahead; the 65th finds no row left.
        # Built without quiet bounds, the field updates at every step.
        rng = np.random.default_rng(5)
        task = make_task(rng.normal(size=(65, 6)), rng.normal(size=(20, 6)) + 0.5)
        field = PotentialField(task.majority, init_field(task, 0.1).phi, 0.1)
        calls = count_row_calls(monkeypatch)
        assert field.pop_greedy(65).tolist() == list(range(65))
        assert calls == [potential._AHEAD + 1] * 4 + [1]
        _, phi = dense_reference_order(task, 0.1, 65, "lowest-index", 0)
        assert field._phi.tobytes() == phi.tobytes()

    @pytest.mark.parametrize(
        "span, gamma, quiet",
        [
            (10.0, 0.1, 0.0),
            (1e6, 1.0, 0.0),
            (1e150, 1.0, 0.0),
            (0.01, 1.0, np.inf),  # RBFs near 1: never quiet
            pytest.param(None, 0.1, None, id="dense-block"),
        ],
    )
    def test_quiet_bounds(self, span, gamma, quiet):
        if span is None:
            # Many pairs lie within the exp floor, so the block takes the
            # dense path, yet each bound is the exact off-diagonal maximum.
            task = scattered_task()
            rbf = np.exp(cdist(task.majority, task.majority, "sqeuclidean") * -check_gamma(gamma))
            np.fill_diagonal(rbf, 0.0)
            assert np.count_nonzero(rbf) > _GATHER_SHARE * rbf.size
            expected = rbf.max(axis=1)
            assert 0 < expected.max() < 2.0**-53 * len(task.points)
        else:
            # Ten points in a row, so that their block can take the gather path.
            task = make_task(np.arange(10.0)[:, None] * span, [[-5.0 * span]])
            expected = np.full(10, quiet)
        count = task.n_majority
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = init_field(task, gamma)
            assert field._quiet.tobytes() == expected.tobytes()
            assert field.pop_greedy(count).tolist() == dense_reference_order(
                task, gamma, count, "lowest-index", 0
            )[0]

    def test_dense_block_steps_go_quiet(self, monkeypatch):
        # Every potential reads exactly 1.0, and no removal moves one by a bit.
        task = scattered_task()
        field = init_field(task, 0.1)
        assert field.phi.tolist() == [1.0] * 30
        updates = count_updates(monkeypatch)
        order = field.pop_greedy(20)
        assert updates == []
        expected, phi = dense_reference_order(task, 0.1, 20, "lowest-index", 0)
        assert order.tolist() == expected
        assert field._phi.tobytes() == phi.tobytes()

    def test_quiet_bound_covers_each_rbf(self):
        # The first two points are 25 gamma apart; the rest lie far from all.
        majority = np.array([0.0, 2.5] + [10.0 * i for i in range(4, 12)])[:, None]
        field = init_field(make_task(majority, [[200.0]]), 0.1)
        rbf = math.exp(-625.0)
        assert rbf <= field._quiet[0] == field._quiet[1] <= rbf * (1 + 1e-8)
        assert field._quiet[2:].tolist() == [0.0] * 8

    def test_quiet_rule_at_its_edges(self):
        # Potentials set by hand pick points 3, 0 and 2 first.  Point 3's RBF
        # at point 4, 2^-50, moves that potential of 1.0 although it is far
        # below point 1's potential.  Removing point 0 then takes point 1's
        # potential, e^-1, to about 0, so that the far smaller RBF of point
        # 2 at point 1 moves it too.  The others lie far from all, so point 5
        # goes next, quietly.
        majority = [0.0, 1.0, 8.0, 100.0, 100.0 + math.sqrt(50 * math.log(2))]
        majority = np.array(majority + [200.0 * i for i in range(1, 8)])[:, None]
        field = init_field(make_task(majority, [[-500.0]]), 1.0)
        assert field._quiet[:2].tolist() == [np.inf] * 2  # e^-1: never quiet
        assert np.isfinite(field._quiet[2:]).all()
        phi = np.array([7.0, math.exp(-1), 6.0, 8.0] + [1.0] * 8)
        field._phi, dense = phi.copy(), PotentialField(majority, phi.copy(), 1.0)
        assert field.pop_greedy(4).tolist() == dense.pop_greedy(4).tolist() == [3, 0, 2, 5]
        assert field._phi.tobytes() == dense._phi.tobytes()
        assert 0 < abs(field._phi[1]) < 1e-9 and field._phi[4] < 1.0

    def test_count_taken_by_the_integer_rule(self):
        field = init_field(make_task([[0.0], [1.0], [2.0]], []), 1.0)
        for count in (1.5, True, "1", None):
            with pytest.raises(ParameterError, match="count must be an integer"):
                field.pop_greedy(count)
        assert field.pop_greedy(2.0).tolist() == [1, 0]
        assert field.pop_greedy(np.int64(1)).tolist() == [2]
        assert len(field) == 0

    def test_count_checked_against_remaining_points(self):
        field = init_field(make_task([[0.0], [1.0], [2.0]], []), 1.0)
        assert field.pop_greedy(0).tolist() == []
        with pytest.raises(ParameterError, match="empty"):
            field.pop_greedy(4)
        with pytest.raises(ParameterError, match=">= 0"):
            field.pop_greedy(-1)
        assert field.pop_greedy(3).tolist() == [1, 0, 2]
        with pytest.raises(ParameterError, match="empty"):
            field.pop_greedy(1)

    def test_tie_rule_checked(self):
        field = init_field(make_task([[0.0], [1.0]], []), 1.0)
        with pytest.raises(ParameterError, match="rng"):
            field.pop_greedy(1, "seeded-random")
        with pytest.raises(ParameterError, match="tie rule"):
            field.pop_greedy(1, "coin-flip")


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
        for resolution in (2.5, True, "3"):
            with pytest.raises(ParameterError, match="resolution must be an integer"):
                potential_grid(task, 1.0, ((0, 1), (0, 1)), resolution)
        whole = potential_grid(task, 1.0, ((0, 1), (0, 1)), 3.0)  # a TypeError before
        assert whole.to_json() == potential_grid(task, 1.0, ((0, 1), (0, 1)), 3).to_json()
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
