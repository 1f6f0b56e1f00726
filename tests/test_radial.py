import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import ParameterError, RbuParams, init_field, neighbors, rbu_kept_indices, rbu_removal_order, rbu_undersample

from oracles import make_task, naive_rbu_trace, random_task, random_task_for_gamma


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RbuParams(gamma=0.0, ratio=1.0)
        with pytest.raises(ParameterError):
            RbuParams(gamma=1.0, ratio=1.5)
        with pytest.raises(ParameterError):
            RbuParams(gamma=1.0, ratio=-0.1)
        with pytest.raises(ParameterError):
            RbuParams(gamma=1.0, ratio=1.0, tie_rule="whatever")
        with pytest.raises(ParameterError):
            RbuParams(gamma=1.0, ratio=1.0, tie_rule="seeded-random")

    def test_ratio_zero_is_legal(self):
        RbuParams(gamma=1.0, ratio=0.0)


class TestUndersample:
    def test_ratio_zero_keeps_everything(self):
        task = make_task([[0.0], [1.0], [2.0]], [[5.0]])
        out = rbu_undersample(task, RbuParams(gamma=1.0, ratio=0.0))
        np.testing.assert_array_equal(out, task.majority)

    def test_already_balanced(self):
        task = make_task([[0.0], [1.0]], [[5.0], [6.0]])
        out = rbu_undersample(task, RbuParams(gamma=1.0, ratio=1.0))
        np.testing.assert_array_equal(out, task.majority)

    def test_traced_example(self):
        # step-by-step trace frozen from the brute-force oracle:
        # initial potentials ~ [1.99621, 1.99879, 0.05532] -> remove index 1,
        # then [1.00616, 0.02827] -> remove index 0, leaving (2, 0).
        task = make_task([[0.0, 0.0], [0.1, 0.0], [2.0, 0.0]], [[2.1, 0.0]])
        params = RbuParams(gamma=1.0, ratio=1.0)
        order = rbu_removal_order(task, params)
        np.testing.assert_array_equal(order, [1, 0])
        out = rbu_undersample(task, params)
        np.testing.assert_allclose(out, [[2.0, 0.0]])

        field = init_field(task, 1.0)
        point, first = field.pop_max()
        field.subtract(point)
        assert first == 1
        np.testing.assert_allclose(
            field.phi, [1.0061604605588192, 0.0282658051395661], atol=1e-9
        )

    def test_balanced_endpoint(self):
        rng = np.random.default_rng(0)
        task = random_task(rng, 37, 12, 3)
        out = rbu_undersample(task, RbuParams(gamma=0.5, ratio=1.0))
        assert len(out) == task.n_minority

    def test_fractional_threshold_takes_ceiling(self):
        # excess 5, ratio 0.5 -> threshold 2.5 -> 3 removals
        task = make_task([[float(i)] for i in range(7)], [[10.0], [11.0]])
        out = rbu_undersample(task, RbuParams(gamma=1.0, ratio=0.5))
        assert len(out) == 7 - 3

    def test_minority_never_touched(self):
        rng = np.random.default_rng(1)
        task = random_task(rng, 20, 6, 2)
        before = task.minority.copy()
        rbu_undersample(task, RbuParams(gamma=1.0, ratio=1.0))
        np.testing.assert_array_equal(task.minority, before)

    def test_empty_minority_rejected(self):
        task = make_task([[0.0], [1.0]], [])
        with pytest.raises(ParameterError, match="minority"):
            rbu_undersample(task, RbuParams(gamma=1.0, ratio=0.5))

    def test_majority_smaller_than_minority_rejected(self):
        task = make_task([[0.0]], [[1.0], [2.0]])
        with pytest.raises(ParameterError, match="smaller"):
            rbu_undersample(task, RbuParams(gamma=1.0, ratio=1.0))

    def test_survivors_keep_relative_order(self):
        rng = np.random.default_rng(2)
        task = random_task(rng, 25, 5, 2)
        kept = rbu_kept_indices(task, RbuParams(gamma=0.2, ratio=0.7))
        assert np.all(np.diff(kept) > 0)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        task = random_task(rng, 30, 10, 4)
        params = RbuParams(gamma=0.7, ratio=1.0)
        one = rbu_undersample(task, params)
        two = rbu_undersample(task, params)
        assert one.tobytes() == two.tobytes()

    def test_seeded_random_tie_rule_is_deterministic(self):
        task = make_task([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [[5.0, 5.0]])
        params = RbuParams(gamma=1.0, ratio=1.0, tie_rule="seeded-random", tie_seed=9)
        one = rbu_removal_order(task, params)
        two = rbu_removal_order(task, params)
        np.testing.assert_array_equal(one, two)

    @pytest.mark.parametrize(
        "params",
        [
            RbuParams(gamma=0.5, ratio=1.0),
            RbuParams(gamma=0.5, ratio=1.0, tie_rule="seeded-random", tie_seed=4),
        ],
    )
    def test_row_blocks_leave_removal_order_bit_identical(self, params, monkeypatch):
        rng = np.random.default_rng(12)
        # Integer coordinates make many potentials tie exactly.
        task = make_task(rng.integers(0, 3, size=(30, 2)), rng.integers(0, 3, size=(8, 2)))
        whole = rbu_removal_order(task, params)
        monkeypatch.setattr(neighbors, "_BLOCK", 3 * task.n_majority)  # 3 rows per block
        np.testing.assert_array_equal(rbu_removal_order(task, params), whole)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_cardinality_and_subset(self, extra, n_minority, ratio, seed):
        rng = np.random.default_rng(seed)
        n_majority = n_minority + extra
        task = random_task(rng, n_majority, n_minority, 3)
        kept = rbu_kept_indices(task, RbuParams(gamma=1.0, ratio=ratio))
        removed = int(np.ceil(ratio * (n_majority - n_minority)))
        assert len(kept) == n_majority - removed
        assert set(kept.tolist()) <= set(range(n_majority))


class TestOracleEquivalence:
    def test_small_instances_match_naive_recomputation(self):
        rng = np.random.default_rng(20240)
        for _ in range(25):
            n_min = int(rng.integers(1, 12))
            n_maj = n_min + int(rng.integers(1, 30))
            m = int(rng.integers(1, 5))
            gamma = float(rng.choice([0.1, 1.0, 10.0]))
            ratio = float(rng.choice([0.5, 1.0]))
            task = random_task_for_gamma(rng, n_maj, n_min, m, gamma)
            expected, steps = naive_rbu_trace(task.majority, task.minority, gamma, ratio)
            got = rbu_removal_order(task, RbuParams(gamma=gamma, ratio=ratio))
            assert got.tolist() == expected

            field = init_field(task, gamma)
            for alive_before, phi_expected in steps:
                np.testing.assert_allclose(
                    field.phi, phi_expected, rtol=0, atol=1e-9
                )
                point, _ = field.pop_max()
                field.subtract(point)

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_offset_instances_match_naive_recomputation(self, offset):
        # The potential is translation invariant, so moving the whole task far
        # from the origin must not change the removal order.
        rng = np.random.default_rng(20241)
        for _ in range(20):
            n_min = int(rng.integers(1, 12))
            n_maj = n_min + int(rng.integers(1, 30))
            m = int(rng.integers(1, 5))
            gamma = float(rng.choice([0.1, 1.0, 10.0]))
            ratio = float(rng.choice([0.5, 1.0]))
            task = random_task_for_gamma(rng, n_maj, n_min, m, gamma)
            expected, _ = naive_rbu_trace(task.majority, task.minority, gamma, ratio)
            shifted = make_task(task.majority + offset, task.minority + offset)
            got = rbu_removal_order(shifted, RbuParams(gamma=gamma, ratio=ratio))
            assert got.tolist() == expected


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e150, 3e151, 1e152, 1e153, 1e154])
    @pytest.mark.parametrize("gamma", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_order_never_repeats_an_index(self, scale, gamma):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3):
            task = make_task(rng.normal(size=(6, m)) * scale, rng.normal(size=(2, m)) * scale)
            try:
                order = rbu_removal_order(task, RbuParams(gamma=gamma, ratio=1.0))
            except ParameterError as exc:
                assert "coordinates too large" in str(exc)
                continue
            assert len(order) == 4 and len(set(order.tolist())) == 4


class TestExactTies:
    # At gamma 0.1 points 10 apart contribute exp(-1e4) == 0.0 to each other,
    # so every majority point's potential is exactly its self-contribution.
    MAJORITY = [[30.0, 0.0], [0.0, 10.0], [20.0, 20.0], [10.0, 0.0], [0.0, 30.0], [40.0, 40.0]]
    MINORITY = [[60.0, 0.0], [0.0, 60.0]]

    def test_isolated_points_have_potential_exactly_one(self):
        field = init_field(make_task(self.MAJORITY, self.MINORITY), 0.1)
        assert field.phi.tolist() == [1.0] * len(self.MAJORITY)

    def test_isolated_cluster_removed_in_lowest_index_order(self):
        task = make_task(self.MAJORITY, self.MINORITY)
        order = rbu_removal_order(task, RbuParams(gamma=0.1, ratio=1.0))
        assert order.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("tie_rule", ["lowest-index", "seeded-random"])
    def test_popping_to_empty_never_repeats_an_index(self, tie_rule):
        field = init_field(make_task(self.MAJORITY, self.MINORITY), 0.1)
        rng = np.random.default_rng(4)
        popped = []
        for _ in range(len(self.MAJORITY)):
            point, index = field.pop_max(tie_rule=tie_rule, rng=rng)
            field.subtract(point)
            popped.append(index)
        assert sorted(popped) == list(range(len(self.MAJORITY)))
        if tie_rule == "lowest-index":
            assert popped == sorted(popped)
        assert len(field) == 0
        with pytest.raises(ParameterError):
            field.pop_max(tie_rule=tie_rule, rng=rng)
