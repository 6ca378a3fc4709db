import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itemlens.irt import (
    AbilityEstimate,
    CurveTable,
    DegenerateMatrix,
    DimensionMismatch,
    EmptyGrid,
    EmptyItemSet,
    FIT_FIELDS,
    FitConfig,
    ItemParameters,
    Quadrature,
    default_theta_grid,
    difficult_at_average,
    estimate_abilities,
    fit_2pl,
    icc_prob,
    item_information,
    marginal_log_likelihood,
    marginal_loglik_gradient,
    PARAMS,
    params_to_csv,
    sample_curves,
)
from itemlens import irt
from itemlens.irt import test_information as total_information
from itemlens.response import MISSING, ResponseMatrix
from itemlens.tables import from_json, read_csv, record, to_json

from oracles import (
    brute_marginal_ll,
    grid_ascent_fit,
    maximize_item,
    normal_nodes_weights,
    observed_information_loop,
    sigmoid,
)

finite_a = st.floats(min_value=-8, max_value=8, allow_nan=False)
finite_b = st.floats(min_value=-6, max_value=6, allow_nan=False)
finite_theta = st.floats(min_value=-6, max_value=6, allow_nan=False)


def _matrix(cells, group="g"):
    cells = np.asarray(cells, dtype=np.int8)
    students = [f"s{i}" for i in range(cells.shape[0])]
    items = [f"i{j}" for j in range(cells.shape[1])]
    return ResponseMatrix(group, students, items, cells)


def _random_matrix(rng, n_students, n_items, a_true, b_true, missing_rate=0.0):
    theta = rng.standard_normal(n_students)
    z = np.asarray(a_true)[None, :] * (theta[:, None] - np.asarray(b_true)[None, :])
    p = 1.0 / (1.0 + np.exp(-z))
    cells = (rng.random((n_students, n_items)) < p).astype(np.int8)
    if missing_rate:
        cells[rng.random((n_students, n_items)) < missing_rate] = MISSING
    return _matrix(cells)


class TestIccProb:
    def test_symmetry_point(self):
        assert icc_prob(1.0, 0.0, 0.0) == 0.5
        assert icc_prob(2.0, 1.0, 1.0) == 0.5

    def test_known_value(self):
        assert icc_prob(1.0, 0.0, 2.0) == pytest.approx(0.8807970779778823, rel=1e-12)

    def test_extreme_logits_stable(self):
        # harmless underflow to 0 is fine; overflow would be a bug
        with np.errstate(over="raise"):
            assert icc_prob(1.0, 0.0, 800.0) == 1.0
            assert icc_prob(1.0, 0.0, -800.0) == 0.0
            assert icc_prob(10.0, -50.0, 50.0) == 1.0

    def test_array_theta(self):
        thetas = np.array([-1.0, 0.0, 1.0])
        out = icc_prob(1.0, 0.0, thetas)
        assert isinstance(out, np.ndarray)
        for t, v in zip(thetas, out):
            assert v == icc_prob(1.0, 0.0, float(t))

    @given(finite_a, finite_b)
    def test_half_probability_at_difficulty(self, a, b):
        assert icc_prob(a, b, b) == 0.5

    @given(finite_a, finite_b, finite_theta)
    def test_translation_property(self, a, b, theta):
        lhs = icc_prob(a, b, theta)
        rhs = icc_prob(a, 0.0, theta - b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=4),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=1e-3, max_value=1),
    )
    def test_increasing_when_a_positive(self, a, b, theta, step):
        # ranges keep |a(theta-b)| below saturation so strict ordering holds
        assert icc_prob(a, b, theta + step) > icc_prob(a, b, theta)
        assert icc_prob(-a, b, theta + step) < icc_prob(-a, b, theta)


class TestItemInformation:
    def test_known_values(self):
        assert item_information(1.0, 0.0, 0.0) == 0.25
        assert item_information(2.0, 0.0, 0.0) == 1.0

    def test_vanishes_in_tails(self):
        assert item_information(1.5, 0.3, 40.0) < 1e-12
        assert item_information(1.5, 0.3, -40.0) < 1e-12

    @given(finite_a, finite_b, finite_theta)
    def test_nonnegative_and_peaked_at_difficulty(self, a, b, theta):
        v = item_information(a, b, theta)
        assert v >= 0.0
        assert v <= a * a / 4.0 + 1e-12

    @given(finite_a, finite_b, st.floats(min_value=0, max_value=5))
    def test_symmetric_about_difficulty(self, a, b, d):
        left = item_information(a, b, b - d)
        right = item_information(a, b, b + d)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)

    def test_peak_value(self):
        assert item_information(1.7, -0.4, -0.4) == pytest.approx(1.7**2 / 4, rel=1e-12)


class TestTestInformation:
    def test_single_item_identity(self):
        items = [ItemParameters("x", 1.3, 0.2)]
        assert total_information(items, 0.7) == item_information(1.3, 0.2, 0.7)

    def test_two_copies(self):
        items = [ItemParameters("x", 1.0, 0.0), ItemParameters("y", 1.0, 0.0)]
        assert total_information(items, 0.0) == 0.5

    def test_matches_independent_sum(self):
        items = [
            ItemParameters("x", 0.8, -1.2),
            ItemParameters("y", -0.47, 6.7),
            ItemParameters("z", 2.1, 0.3),
        ]
        expected = sum(item_information(p.a, p.b, 0.9) for p in items)
        assert total_information(items, 0.9) == pytest.approx(expected, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyItemSet):
            total_information([], 0.0)


class TestDifficultAtAverage:
    def test_positive_slope_above_zero_difficulty(self):
        assert difficult_at_average(ItemParameters("x", 1.0, 0.5)) is True

    def test_boundary_is_not_difficult(self):
        assert difficult_at_average(ItemParameters("x", 1.0, 0.0)) is False

    def test_negative_slope_inverts(self):
        # a < 0 with large b still yields P(0) near 1
        assert difficult_at_average(ItemParameters("x", -0.5, 6.72)) is False


class TestQuadrature:
    def test_default_shape(self):
        q = Quadrature.normal()
        assert len(q.nodes) == 41
        assert q.nodes[0] == -5.0 and q.nodes[-1] == 5.0
        steps = np.diff(q.nodes)
        assert np.allclose(steps, steps[0])

    def test_weights_normalized_and_symmetric(self):
        q = Quadrature.normal()
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(q.weights > 0)
        assert np.allclose(q.weights, q.weights[::-1])
        assert q.weights.argmax() == 20  # center node

    def test_matches_oracle_recount(self):
        q = Quadrature.normal(9, -3.0, 3.0)
        nodes, weights = normal_nodes_weights(9, -3.0, 3.0)
        assert np.allclose(q.nodes, nodes, atol=1e-15)
        assert np.allclose(q.weights, weights, atol=1e-15)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Quadrature.normal(n_nodes=1)
        with pytest.raises(ValueError):
            Quadrature.normal(lo=2.0, hi=-2.0)


class TestMarginalLogLikelihood:
    def test_five_node_hand_oracle(self):
        # one student, one correct response: LL = log sum_k w_k P_k
        m = _matrix([[1]])
        params = [ItemParameters("i0", 1.0, 0.0)]
        quad = Quadrature.normal(5, -5.0, 5.0)
        nodes, weights = normal_nodes_weights(5, -5.0, 5.0)
        expected = math.log(sum(w * sigmoid(t) for t, w in zip(nodes, weights)))
        assert marginal_log_likelihood(m, params, quad) == pytest.approx(expected, rel=1e-14)

    def test_empty_matrix_is_zero(self):
        m = ResponseMatrix("g", [], [], np.zeros((0, 0), dtype=np.int8))
        assert marginal_log_likelihood(m, [], Quadrature.normal()) == 0.0

    def test_all_missing_is_zero(self):
        m = _matrix([[MISSING, MISSING], [MISSING, MISSING]])
        params = [ItemParameters("i0", 1.0, 0.0), ItemParameters("i1", 1.0, 0.0)]
        assert marginal_log_likelihood(m, params, Quadrature.normal()) == 0.0

    def test_matches_brute_force_with_missing(self):
        rng = np.random.default_rng(7)
        a_true = [0.8, 1.4, -0.6, 2.0]
        b_true = [-1.0, 0.2, 1.5, -0.4]
        m = _random_matrix(rng, 20, 4, a_true, b_true, missing_rate=0.25)
        params = [ItemParameters(item, a, b) for item, a, b in zip(m.item_ids, a_true, b_true)]
        quad = Quadrature.normal(11, -4.0, 4.0)
        nodes, weights = normal_nodes_weights(11, -4.0, 4.0)
        rows = [[None if v == MISSING else int(v) for v in row] for row in m.cells]
        expected = brute_marginal_ll(rows, list(zip(a_true, b_true)), nodes, weights)
        got = marginal_log_likelihood(m, params, quad)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_uncovered_item_raises(self):
        m = _matrix([[1, 0], [0, 1]])
        params = [ItemParameters("i0", 1.0, 0.0)]
        with pytest.raises(DimensionMismatch):
            marginal_log_likelihood(m, params, Quadrature.normal())

    def test_degenerate_params_skipped(self):
        cells = np.array([[1, 1], [0, 1], [1, 1]], dtype=np.int8)
        m = _matrix(cells)
        full = [
            ItemParameters("i0", 1.2, -0.3),
            ItemParameters("i1", 1.0, -50.0, degenerate=True),
        ]
        reduced_matrix = m.drop_items(["i1"])
        reduced = marginal_log_likelihood(reduced_matrix, full[:1], Quadrature.normal())
        assert marginal_log_likelihood(m, full, Quadrature.normal()) == pytest.approx(reduced, rel=1e-14)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        m = _random_matrix(rng, 30, 3, [1.0, 1.5, 0.7], [0.0, -0.8, 1.1], missing_rate=0.1)
        quad = Quadrature.normal()
        step = 1e-5
        for trial in range(20):
            a = rng.uniform(-2.0, 2.5, size=3)
            # keep slopes away from zero so the log-likelihood surface is informative
            a[np.abs(a) < 0.05] = 0.05
            b = rng.uniform(-2.0, 2.0, size=3)
            params = [ItemParameters(item, ai, bi) for item, ai, bi in zip(m.item_ids, a, b)]
            grad = marginal_loglik_gradient(m, params, quad)
            for j in range(3):
                for which in (0, 1):
                    bumped = [list(pair) for pair in zip(a, b)]
                    bumped[j][which] += step
                    hi = marginal_log_likelihood(
                        m, [ItemParameters(it, *ab) for it, ab in zip(m.item_ids, bumped)], quad
                    )
                    bumped[j][which] -= 2 * step
                    lo = marginal_log_likelihood(
                        m, [ItemParameters(it, *ab) for it, ab in zip(m.item_ids, bumped)], quad
                    )
                    fd = (hi - lo) / (2 * step)
                    denom = max(1.0, abs(fd))
                    assert abs(grad[j, which] - fd) / denom < 1e-4

    def test_absent_item_gets_zero_row(self):
        m = _matrix([[1, 0], [0, 1], [1, 1]])
        params = [
            ItemParameters("i0", 1.0, 0.0),
            ItemParameters("i1", 1.0, 0.0),
            ItemParameters("ghost", 1.0, 0.0, degenerate=True),
        ]
        grad = marginal_loglik_gradient(m, params, Quadrature.normal())
        assert grad.shape == (3, 2)
        assert grad[2, 0] == 0.0 and grad[2, 1] == 0.0


GRID_A = np.round(np.arange(0.1, 3.0 + 1e-9, 0.05), 10)
GRID_B = np.round(np.arange(-3.0, 3.0 + 1e-9, 0.05), 10)


class TestFit2pl:
    def test_recovery_vs_grid_oracle(self):
        # one item alone is unidentified (only its pooled share matters), so
        # the generating item is paired with a fixed anchor item
        rng = np.random.default_rng(42)
        m = _random_matrix(rng, 1000, 2, [1.2, 1.0], [0.5, 0.0])
        config = FitConfig()
        result = fit_2pl(m, config)
        quad = config.quadrature()
        oracle_items, oracle_ll = grid_ascent_fit(
            np.asarray(m.cells, dtype=np.int8), GRID_A, GRID_B, quad.nodes, quad.weights
        )
        fitted = result.items[0]
        assert abs(fitted.a - oracle_items[0][0]) <= 0.15
        assert abs(fitted.b - oracle_items[0][1]) <= 0.15
        assert result.diagnostics.log_likelihood >= oracle_ll - 0.01

    def test_duplicated_columns_get_equal_parameters(self):
        rng = np.random.default_rng(3)
        base = _random_matrix(rng, 300, 2, [1.1, 0.9], [0.3, -0.5])
        cells = np.column_stack([base.cells, base.cells[:, 0]])
        m = ResponseMatrix("g", base.student_ids, ["a1", "b1", "a2"], cells)
        items = {p.item_id: p for p in fit_2pl(m, FitConfig()).items}
        assert items["a1"].a == pytest.approx(items["a2"].a, abs=1e-6)
        assert items["a1"].b == pytest.approx(items["a2"].b, abs=1e-6)

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(5)
        m = _random_matrix(rng, 200, 2, [1.3, 0.8], [0.4, -0.9])
        diag = fit_2pl(m, FitConfig()).diagnostics
        trace = diag.trace  # starting value plus one entry per iteration
        assert len(trace) == diag.n_iterations + 1
        for prev, cur in zip(trace, trace[1:]):
            assert cur - prev >= -1e-8 * max(1.0, abs(prev))
        assert diag.converged

    def test_too_few_students_raises(self):
        m = _matrix([[1, 0], [0, 1]])
        with pytest.raises(DegenerateMatrix):
            fit_2pl(m, FitConfig())

    def test_too_few_informative_items_raises(self):
        rng = np.random.default_rng(9)
        cells = (rng.random((30, 2)) < 0.5).astype(np.int8)
        cells[:, 1] = 1  # constant column leaves a single informative item
        with pytest.raises(DegenerateMatrix):
            fit_2pl(_matrix(cells), FitConfig())

    def test_degenerate_column_conventions(self):
        rng = np.random.default_rng(13)
        cells = (rng.random((60, 3)) < 0.6).astype(np.int8)
        cells[:, 0] = 1
        m = ResponseMatrix("g", [f"s{i}" for i in range(60)], ["allright", "u", "v"], cells)
        items = {p.item_id: p for p in fit_2pl(m, FitConfig()).items}
        flagged = items["allright"]
        assert flagged.degenerate is True
        assert flagged.a == 1.0
        assert flagged.b == -50.0
        assert flagged.se_a is None and flagged.se_b is None
        assert not items["u"].degenerate and not items["v"].degenerate

    def test_all_wrong_column_pins_high_difficulty(self):
        rng = np.random.default_rng(14)
        cells = (rng.random((60, 3)) < 0.6).astype(np.int8)
        cells[:, 2] = 0
        m = ResponseMatrix("g", [f"s{i}" for i in range(60)], ["u", "v", "allwrong"], cells)
        items = {p.item_id: p for p in fit_2pl(m, FitConfig()).items}
        assert items["allwrong"].degenerate is True
        assert items["allwrong"].b == 50.0

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(21)
        m = _random_matrix(rng, 80, 3, [1.0, 1.2, 0.8], [0.0, 0.5, -0.5])
        diag = fit_2pl(m, FitConfig(max_iter=1)).diagnostics
        assert diag.converged is False
        assert diag.n_iterations == 1

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(31)
        m = _random_matrix(rng, 150, 4, [1.0, 1.5, 0.6, 2.0], [0.0, -1.0, 1.0, 0.3])
        first = fit_2pl(m, FitConfig())
        second = fit_2pl(m, FitConfig())
        for p, q in zip(first.items, second.items):
            assert (p.a, p.b, p.se_a, p.se_b) == (q.a, q.b, q.se_a, q.se_b)
        assert first.diagnostics.log_likelihood == second.diagnostics.log_likelihood

    @staticmethod
    def _assert_standard_errors_match_numerical_hessian(m):
        config = FitConfig()
        result = fit_2pl(m, config)
        quad = config.quadrature()
        fitted = result.items
        step = 1e-5
        for j, p in enumerate(fitted):
            hess = np.zeros((2, 2))
            for which in (0, 1):
                for sign, weight in ((1, 1.0), (-1, -1.0)):
                    moved = list(fitted)
                    a, b = p.a, p.b
                    if which == 0:
                        moved[j] = ItemParameters(p.item_id, a + sign * step, b)
                    else:
                        moved[j] = ItemParameters(p.item_id, a, b + sign * step)
                    grad = marginal_loglik_gradient(m, moved, quad)
                    hess[:, which] += weight * grad[j] / (2 * step)
            se = np.sqrt(np.diag(np.linalg.inv(-0.5 * (hess + hess.T))))
            assert p.se_a == pytest.approx(se[0], rel=2e-3)
            assert p.se_b == pytest.approx(se[1], rel=2e-3)
        return fitted

    def test_standard_errors_match_numerical_hessian(self):
        rng = np.random.default_rng(17)
        m = _random_matrix(rng, 250, 3, [1.2, 0.9, 1.6], [0.2, -0.6, 0.9])
        self._assert_standard_errors_match_numerical_hessian(m)

    def test_standard_errors_match_numerical_hessian_with_missing_cells(self):
        rng = np.random.default_rng(17)
        m = _random_matrix(rng, 250, 3, [1.2, -0.9, 1.6], [0.2, -0.6, 0.9], missing_rate=0.15)
        assert 0.1 < (m.cells == MISSING).mean() < 0.2
        fitted = self._assert_standard_errors_match_numerical_hessian(m)
        assert fitted[1].a < 0.0

    def test_fit_peak_memory_stays_under_five_score_matrices(self):
        # numpy reports its buffers to tracemalloc; the bound counts float64
        # arrays the size of the matrix, so holding extra S x I temporaries
        # (an unblocked standard-error pass, say) breaks it
        rng = np.random.default_rng(2024)
        n_students, n_items = 4000, 100
        m = _random_matrix(
            rng, n_students, n_items, rng.uniform(0.5, 2.0, n_items), rng.uniform(-2.0, 2.0, n_items), 0.1
        )
        tracemalloc.start()
        try:
            fit_2pl(m, FitConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * n_students * n_items * 8

    def test_floors_are_configurable(self):
        cells = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.int8)
        result = fit_2pl(_matrix(cells), FitConfig(min_students=2))
        assert len(result.items) == 2


class TestFitConfig:
    def test_documented_defaults(self):
        c = FitConfig()
        assert (c.n_nodes, c.node_lo, c.node_hi) == (41, -5.0, 5.0)
        assert (c.tol, c.max_iter, c.newton_max_steps) == (1e-6, 500, 50)
        assert (c.a_bound, c.b_bound) == (10.0, 50.0)
        assert (c.min_students, c.min_items) == (10, 2)

    def test_dict_round_trip(self):
        c = FitConfig(n_nodes=21, tol=1e-5, min_items=3)
        assert record(FIT_FIELDS, FitConfig).load(asdict(c)) == c

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            record(FIT_FIELDS, FitConfig).load({"n_nodes": 41, "mystery": 1})

    def test_quadrature_matches_spec(self):
        q = FitConfig(n_nodes=5, node_lo=-2.0, node_hi=2.0).quadrature()
        assert list(q.nodes) == [-2.0, -1.0, 0.0, 1.0, 2.0]


class TestEstimateAbilities:
    def _params(self):
        return [ItemParameters("i0", 1.2, 0.0), ItemParameters("i1", 0.9, -0.5)]

    def test_all_missing_row_gets_prior(self):
        m = _matrix([[1, 0], [MISSING, MISSING]])
        est = estimate_abilities(m, self._params(), Quadrature.normal())
        prior = est[1]
        assert prior.theta == 0.0
        assert prior.se_theta == 1.0

    def test_identical_rows_identical_estimates(self):
        m = _matrix([[1, 0], [1, 0], [0, 1]])
        est = estimate_abilities(m, self._params(), Quadrature.normal())
        assert est[0].theta == est[1].theta
        assert est[0].se_theta == est[1].se_theta

    def test_all_correct_sits_above_average(self):
        m = _matrix([[1, 1], [0, 0]])
        est = estimate_abilities(m, self._params(), Quadrature.normal())
        assert est[0].theta > 0.0
        assert est[1].theta < 0.0

    def test_posterior_sd_positive(self):
        m = _matrix([[1, 0], [0, MISSING]])
        for e in estimate_abilities(m, self._params(), Quadrature.normal()):
            assert e.se_theta > 0.0
            assert isinstance(e, AbilityEstimate)


class TestSampleCurves:
    def test_default_grid_contract(self):
        grid = default_theta_grid()
        assert len(grid) == 161
        assert grid[0] == -4.0 and grid[-1] == 4.0
        assert np.allclose(np.diff(grid), 0.05)

    def test_single_item_center_row(self):
        table = sample_curves([ItemParameters("x", 1.0, 0.0)])
        mid = 80
        assert table.thetas[mid] == pytest.approx(0.0, abs=1e-12)
        assert table.prob[mid, 0] == pytest.approx(0.5, abs=1e-12)
        assert table.info[mid, 0] == pytest.approx(0.25, abs=1e-12)

    def test_tif_is_row_sum(self):
        params = [
            ItemParameters("x", 1.1, 0.4),
            ItemParameters("y", -0.5, 6.72),
            ItemParameters("z", 2.0, -1.0),
        ]
        table = sample_curves(params)
        assert np.max(np.abs(table.tif - table.info.sum(axis=1))) <= 1e-12

    def test_bad_grids_rejected(self):
        params = [ItemParameters("x", 1.0, 0.0)]
        with pytest.raises(EmptyGrid):
            sample_curves(params, np.array([]))
        with pytest.raises(EmptyGrid):
            sample_curves(params, np.array([1.0, 0.5]))
        with pytest.raises(EmptyGrid):
            sample_curves(params, np.array([0.0, np.inf]))
        with pytest.raises(EmptyItemSet):
            sample_curves([])

    def test_csv_layout(self):
        table = sample_curves([ItemParameters("q1", 1.0, 0.0)], np.array([-1.0, 0.0, 1.0]))
        lines = table.to_csv().splitlines()
        assert lines[0] == "theta,p_q1,info_q1,tif"
        assert len(lines) == 4
        assert lines[2].startswith("0.0,0.5,0.25,")
        assert isinstance(table, CurveTable)


class TestParamsCodecs:
    def _params(self):
        return [
            ItemParameters("a", 1.2345678901234567, -0.5, se_a=0.11, se_b=0.22),
            ItemParameters("b", -0.4715, 6.72, se_a=None, se_b=None, degenerate=True),
        ]

    def test_csv_round_trip_exact(self):
        params = self._params()
        back = read_csv(PARAMS, params_to_csv(params))
        assert back == params

    def test_dict_round_trip(self):
        params = self._params()
        data = to_json(PARAMS, params)
        assert data["schema_version"] == 1
        assert from_json(PARAMS, data) == params

    def test_csv_header(self):
        text = params_to_csv(self._params())
        assert text.splitlines()[0] == "item_id,a,b,se_a,se_b,degenerate"


def _posterior_at(cells, alpha, beta, quad):
    ones, obs = irt._masks(cells)
    lam = irt._response_loglik_by_node(ones, obs, alpha, beta, quad.nodes)
    _, post = irt._posteriors(lam, quad.weights)
    return ones, obs, post


def _awkward_items(seed, n_students, missing_rate):
    """Cells and (alpha, beta) with a negative slope, a near-zero slope and a single-observation column."""
    rng = np.random.default_rng(seed)
    n_items = 8
    a_true = rng.uniform(0.5, 2.0, n_items)
    a_true[1] = -0.8
    b_true = rng.uniform(-1.5, 1.5, n_items)
    m = _random_matrix(rng, n_students, n_items, a_true, b_true, missing_rate)
    cells = m.cells.copy()
    cells[:, -1] = MISSING
    cells[n_students // 2, -1] = 1
    # near the generating values, where most blocks are positive definite
    beta = a_true + rng.uniform(-0.1, 0.1, n_items)
    alpha = -a_true * b_true + rng.uniform(-0.1, 0.1, n_items)
    beta[2] = 1e-13
    return cells, alpha, beta


class TestObservedInformation:
    @pytest.mark.parametrize(
        "seed,n_students,missing_rate,block_rows",
        [(1, 300, 0.1, irt.SE_BLOCK_ROWS), (2, 250, 0.2, 64), (3, 50, 0.15, 7)],
    )
    def test_blocks_match_loop_oracle(self, monkeypatch, seed, n_students, missing_rate, block_rows):
        monkeypatch.setattr(irt, "SE_BLOCK_ROWS", block_rows)
        quad = FitConfig().quadrature()
        cells, alpha, beta = _awkward_items(seed, n_students, missing_rate)
        ones, obs, post = _posterior_at(cells, alpha, beta, quad)
        info, ok = irt._item_observed_information(ones, obs, post, alpha, beta, quad.nodes)
        expected = observed_information_loop(cells, post, alpha, beta, quad.nodes)
        assert ok.tolist() == [block is not None for block in expected]
        assert ok.sum() >= 5
        for got, block in zip(info, expected):
            if block is not None:
                # entry (i, j) against sqrt(|info_ii * info_jj|): a near-zero
                # slope puts the diagonal entries 50 decades apart
                scale = np.sqrt(np.outer(np.abs(np.diag(block)), np.abs(np.diag(block))))
                assert np.all(np.abs(got - block) <= 1e-10 * scale)

    def test_unobserved_column_has_no_block(self):
        quad = FitConfig().quadrature()
        cells, alpha, beta = _awkward_items(4, 60, 0.1)
        cells[:, 0] = MISSING
        ones, obs, post = _posterior_at(cells, alpha, beta, quad)
        _, ok = irt._item_observed_information(ones, obs, post, alpha, beta, quad.nodes)
        assert not ok[0]


class TestMaximizeItems:
    @pytest.mark.parametrize("max_steps", [1, 3, 50])
    def test_matches_scalar_oracle_and_never_lowers_objective(self, max_steps):
        quad = FitConfig().quadrature()
        cells, alpha, beta = _awkward_items(5, 400, 0.15)
        ones, obs, post = _posterior_at(cells, alpha, beta, quad)
        r, n = ones.T @ post, obs.T @ post
        start_alpha = np.zeros(cells.shape[1])
        start_beta = np.ones(cells.shape[1])
        start_beta[3] = -2.5
        new_alpha, new_beta = irt._maximize_items(quad.nodes, r, n, start_alpha, start_beta, max_steps)
        for j in range(cells.shape[1]):
            want_alpha, want_beta = maximize_item(
                quad.nodes, r[j], n[j], start_alpha[j], start_beta[j], max_steps
            )
            assert new_alpha[j] == pytest.approx(want_alpha, rel=1e-8, abs=1e-8)
            assert new_beta[j] == pytest.approx(want_beta, rel=1e-8, abs=1e-8)
        before = irt._expected_loglik(start_alpha, start_beta, quad.nodes, r, n)
        after = irt._expected_loglik(new_alpha, new_beta, quad.nodes, r, n)
        assert np.all(after >= before)
        assert start_beta[0] == 1.0  # inputs are left alone
