import hashlib
import json
import statistics
from collections import Counter

import numpy as np
import pytest

from itemlens import cli
from itemlens.events import EventKind, aggregate
from itemlens.irt import ItemParameters
from itemlens.response import MISSING, build_matrices
from itemlens.simulate import (
    BehaviorSpec,
    CohortSpec,
    EmptyComparison,
    InvalidScenario,
    LengthMismatch,
    Scenario,
    generate_event_log,
    generate_responses,
    load_scenario,
    recovery_report,
    run_scenario,
    sample_cohort,
)


class TestSampleCohort:
    def test_moments_close_to_spec(self):
        cohort = sample_cohort(CohortSpec(n_students=1000, seed=5))
        thetas = [t for _, t in cohort]
        assert abs(statistics.mean(thetas)) <= 0.1
        assert abs(statistics.stdev(thetas) - 1.0) <= 0.1

    def test_location_and_scale_applied(self):
        spec = CohortSpec(n_students=1500, ability_mean=2.0, ability_sd=0.5, seed=9)
        thetas = [t for _, t in sample_cohort(spec)]
        assert abs(statistics.mean(thetas) - 2.0) <= 0.1
        assert abs(statistics.stdev(thetas) - 0.5) <= 0.1

    def test_deterministic(self):
        spec = CohortSpec(n_students=50, seed=3)
        assert sample_cohort(spec) == sample_cohort(spec)
        other = sample_cohort(CohortSpec(n_students=50, seed=4))
        assert other != sample_cohort(spec)

    def test_ids_padded_and_sorted(self):
        cohort = sample_cohort(CohortSpec(n_students=3, seed=0))
        assert [sid for sid, _ in cohort] == ["s000", "s001", "s002"]
        wide = sample_cohort(CohortSpec(n_students=1200, seed=0))
        assert wide[0][0] == "s0000"
        ids = [sid for sid, _ in wide]
        assert ids == sorted(ids)

    def test_spec_validation(self):
        with pytest.raises(InvalidScenario):
            CohortSpec(n_students=0)
        with pytest.raises(InvalidScenario):
            CohortSpec(n_students=10, ability_sd=0.0)


class TestGenerateResponses:
    def test_share_matches_probability_at_known_ability(self):
        cohort = [(f"s{i:04d}", 0.0) for i in range(8000)]
        m = generate_responses(cohort, [ItemParameters("i0", 1.0, 0.0)], seed=11)
        share = float((m.cells == 1).mean())
        assert abs(share - 0.5) <= 0.02

    def test_flat_item_ignores_ability(self):
        cohort = sample_cohort(CohortSpec(n_students=6000, seed=1))
        m = generate_responses(cohort, [ItemParameters("flat", 0.0, 3.0)], seed=2)
        assert abs(float((m.cells == 1).mean()) - 0.5) <= 0.02

    def test_very_hard_item_rarely_passed(self):
        cohort = sample_cohort(CohortSpec(n_students=4000, seed=8))
        m = generate_responses(cohort, [ItemParameters("wall", 2.0, 10.0)], seed=8)
        assert float((m.cells == 1).mean()) < 0.01

    def test_missing_rate_thins_cells(self):
        cohort = sample_cohort(CohortSpec(n_students=2000, seed=6))
        items = [ItemParameters("i0", 1.0, 0.0), ItemParameters("i1", 1.2, 0.5)]
        m = generate_responses(cohort, items, seed=6, missing_rate=0.3)
        observed = float((m.cells != MISSING).mean())
        assert abs(observed - 0.7) <= 0.03

    def test_thinning_leaves_observed_cells_unchanged(self):
        cohort = sample_cohort(CohortSpec(n_students=300, seed=6))
        items = [ItemParameters("i0", 1.0, 0.0)]
        full = generate_responses(cohort, items, seed=6)
        thin = generate_responses(cohort, items, seed=6, missing_rate=0.4)
        mask = thin.cells != MISSING
        assert np.array_equal(thin.cells[mask], full.cells[mask])

    def test_missing_rate_validated(self):
        cohort = [("s0", 0.0)]
        items = [ItemParameters("i0", 1.0, 0.0)]
        with pytest.raises(InvalidScenario):
            generate_responses(cohort, items, seed=0, missing_rate=1.0)
        with pytest.raises(InvalidScenario):
            generate_responses(cohort, items, seed=0, missing_rate=-0.1)

    def test_deterministic(self):
        cohort = sample_cohort(CohortSpec(n_students=40, seed=2))
        items = [ItemParameters("i0", 1.3, -0.4), ItemParameters("i1", 0.7, 0.9)]
        first = generate_responses(cohort, items, seed=2)
        second = generate_responses(cohort, items, seed=2)
        assert np.array_equal(first.cells, second.cells)
        assert not np.array_equal(first.cells, generate_responses(cohort, items, seed=3).cells)


BUSY = BehaviorSpec(max_attempts=4, retry_prob=0.6, hint_propensity=0.5)


def _small_world(seed=7, n=30):
    cohort = sample_cohort(CohortSpec(n_students=n, seed=seed))
    items = [
        ItemParameters("alpha", 1.2, 0.3),
        ItemParameters("beta", 0.8, -0.6),
        ItemParameters("gamma", 1.6, 1.0),
    ]
    return cohort, items


class TestGenerateEventLog:
    def test_recount_matches_tallies_exactly(self):
        cohort, items = _small_world()
        log = generate_event_log(cohort, items, BUSY, seed=7)
        recount = Counter(
            (e.student_id, e.exercise_id, "hint" if e.kind is EventKind.HINT else e.correct) for e in log.events
        )
        summaries = aggregate(log.events)
        assert len(summaries) == len(cohort) * len(items)
        for s in summaries:
            key = (s.student_id, s.exercise_id)
            n_correct, n_wrong = recount[(*key, True)], recount[(*key, False)]
            assert (s.n_attempts, s.n_correct, s.n_wrong, s.n_hints) == (
                n_correct + n_wrong,
                n_correct,
                n_wrong,
                recount[(*key, "hint")],
            )

    def test_timestamps_strictly_increasing(self):
        cohort, items = _small_world()
        log = generate_event_log(cohort, items, BUSY, seed=3)
        stamps = [e.timestamp for e in log.events]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_canonical_event_order(self):
        cohort, items = _small_world(n=5)
        log = generate_event_log(cohort, items, BUSY, seed=1)
        keys = [(e.student_id, e.exercise_id) for e in log.events]
        # pairs appear as contiguous runs, students ascending, items ascending
        seen: list[tuple[str, str]] = []
        for key in keys:
            if not seen or seen[-1] != key:
                seen.append(key)
        assert seen == sorted(seen)

    def test_stop_on_correct(self):
        cohort, items = _small_world()
        log = generate_event_log(cohort, items, BUSY, seed=9)
        by_pair: dict[tuple[str, str], list] = {}
        for e in log.events:
            if e.kind is EventKind.ATTEMPT:
                by_pair.setdefault((e.student_id, e.exercise_id), []).append(e.correct)
        for flags in by_pair.values():
            assert len(flags) <= BUSY.max_attempts
            if True in flags:
                assert flags.index(True) == len(flags) - 1  # nothing after a success

    def test_quiet_behavior_produces_single_attempts(self):
        cohort, items = _small_world()
        log = generate_event_log(cohort, items, BehaviorSpec(), seed=5)
        assert all(e.kind is EventKind.ATTEMPT for e in log.events)
        assert len(log.events) == len(cohort) * len(items)
        pairs = Counter((e.student_id, e.exercise_id) for e in log.events)
        assert set(pairs.values()) == {1}

    def test_modules_applied(self):
        cohort, items = _small_world(n=2)
        modules = {"alpha": "ch1", "beta": "ch2"}
        log = generate_event_log(cohort, items, BehaviorSpec(), seed=5, modules=modules)
        seen = {e.exercise_id: e.module_id for e in log.events}
        assert seen == {"alpha": "ch1", "beta": "ch2", "gamma": "sim"}

    def test_deterministic(self):
        cohort, items = _small_world(n=10)
        first = generate_event_log(cohort, items, BUSY, seed=4)
        second = generate_event_log(cohort, items, BUSY, seed=4)
        assert first.events == second.events


class TestSingleAttemptEquivalence:
    @pytest.mark.parametrize("behavior", [BehaviorSpec(), BehaviorSpec(max_attempts=3, retry_prob=0.8)])
    def test_log_path_equals_direct_matrix(self, behavior):
        # at threshold 0.70 a pair scores 1 exactly when its first attempt
        # succeeds, which is the same draw generate_responses uses
        cohort, items = _small_world(seed=13, n=50)
        log = generate_event_log(cohort, items, behavior, seed=13)
        built = build_matrices(aggregate(log.events)).matrices[0]
        direct = generate_responses(cohort, items, seed=13)
        assert built.student_ids == direct.student_ids
        assert built.item_ids == direct.item_ids
        assert np.array_equal(built.cells, direct.cells)


def _params(values):
    return [ItemParameters(f"i{j}", a, b) for j, (a, b) in enumerate(values)]


class TestRecoveryReport:
    def test_identity_recovery(self):
        truth = _params([(1.0, 0.0), (1.5, -0.5), (0.7, 1.2)])
        stats = recovery_report(truth, list(truth))
        assert stats.rmse_a == 0.0 and stats.rmse_b == 0.0
        assert stats.max_err_a == 0.0 and stats.max_err_b == 0.0
        assert stats.corr_a == pytest.approx(1.0)
        assert stats.corr_b == pytest.approx(1.0)
        assert stats.n_items == 3

    def test_uniform_offset(self):
        truth = _params([(1.0, 0.0), (1.5, -0.5), (0.7, 1.2)])
        shifted = [ItemParameters(p.item_id, p.a, p.b + 0.1) for p in truth]
        stats = recovery_report(truth, shifted)
        assert stats.rmse_b == pytest.approx(0.1)
        assert stats.max_err_b == pytest.approx(0.1)
        assert stats.corr_b == pytest.approx(1.0)

    def test_reversed_is_anticorrelated(self):
        truth = _params([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        flipped = [
            ItemParameters(p.item_id, a, p.b) for p, a in zip(truth, [3.0, 2.0, 1.0])
        ]
        assert recovery_report(truth, flipped).corr_a == pytest.approx(-1.0)

    def test_alignment_by_id_not_order(self):
        truth = _params([(1.0, 0.0), (2.0, 1.0)])
        stats = recovery_report(truth, list(reversed(truth)))
        assert stats.rmse_a == 0.0 and stats.rmse_b == 0.0

    def test_length_mismatch(self):
        truth = _params([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(LengthMismatch):
            recovery_report(truth, truth[:1])
        renamed = [ItemParameters("other", 1.0, 0.0), truth[1]]
        with pytest.raises(LengthMismatch):
            recovery_report(truth, renamed)

    def test_empty_comparison_raises(self):
        with pytest.raises(EmptyComparison):
            recovery_report([], [])

    def test_constant_side_has_undefined_correlation(self):
        truth = _params([(1.0, 0.0), (1.0, 1.0)])
        stats = recovery_report(truth, list(truth))
        assert stats.corr_a is None
        assert stats.undefined == ["corr_a"]
        assert stats.corr_b == pytest.approx(1.0)

    def test_dict_keys(self):
        truth = _params([(1.0, 0.0), (2.0, 1.0)])
        data = recovery_report(truth, list(truth)).to_dict()
        assert set(data) == {
            "n_items",
            "rmse_a",
            "rmse_b",
            "corr_a",
            "corr_b",
            "max_err_a",
            "max_err_b",
            "undefined",
        }


class TestLoadScenario:
    def test_explicit_items(self):
        sc = load_scenario(
            {
                "n_students": 20,
                "seed": 5,
                "items": [
                    {"item_id": "q1", "a": 1.1, "b": 0.2, "module_id": "ch1"},
                    {"item_id": "q2", "a": 0.9, "b": -0.3},
                ],
                "behavior": {"max_attempts": 2, "retry_prob": 0.5},
                "missing_rate": 0.1,
            }
        )
        assert sc.seed == 5
        assert [p.item_id for p in sc.items] == ["q1", "q2"]
        assert sc.modules == {"q1": "ch1", "q2": "sim"}
        assert sc.behavior.max_attempts == 2
        assert sc.missing_rate == 0.1

    def test_generated_items_respect_ranges(self):
        sc = load_scenario(
            {
                "n_students": 10,
                "n_items": 7,
                "a_range": [0.5, 2.0],
                "b_range": [-2.0, 2.0],
                "module_ids": ["ch1", "ch2"],
            }
        )
        assert len(sc.items) == 7
        assert all(0.5 < p.a < 2.0 for p in sc.items)
        assert all(-2.0 < p.b < 2.0 for p in sc.items)
        assert sc.modules["i00"] == "ch1" and sc.modules["i01"] == "ch2" and sc.modules["i02"] == "ch1"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n_students": 12, "n_items": 3, "seed": 2}))
        sc = load_scenario(path)
        assert sc.cohort.n_students == 12
        assert len(sc.items) == 3

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"n_students": 0, "n_items": 2},
            {"n_students": 5},
            {"n_students": 5, "n_items": -1},
            {"n_students": 5, "n_items": 2, "a_range": [2.0, 0.5]},
            {"n_students": 5, "items": [{"item_id": "x", "a": "wide"}]},
            {"n_students": 5, "items": [{"item_id": "x", "a": 1, "b": 0}, {"item_id": "x", "a": 1, "b": 0}]},
            {"n_students": 5, "n_items": 2, "behavior": "often"},
            {"n_students": 5, "n_items": 2, "missing_rate": 1.0},
            {"n_students": 5, "n_items": 2, "behavior": {"max_attempts": 0}},
        ],
    )
    def test_invalid_scenarios(self, data):
        with pytest.raises(InvalidScenario):
            load_scenario(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"items": [{"item_id": "", "a": 1.0, "b": 0.0}]},
            {"items": [{"item_id": " a ", "a": 1.0, "b": 0.0}]},
            {"items": [{"item_id": "a", "a": 1.0, "b": 0.0, "module_id": "ch1 "}]},
            {"n_items": 3, "module_ids": ["ch1", " ch2"]},
        ],
        ids=["empty-item", "padded-item", "padded-module", "padded-generated-module"],
    )
    def test_ids_a_log_cannot_carry(self, data):
        # a parsed log strips its cells and rejects an empty exercise id
        with pytest.raises(InvalidScenario):
            load_scenario({"n_students": 5, **data})

    def test_generated_module_ids_are_text(self):
        sc = load_scenario({"n_students": 5, "n_items": 3, "module_ids": [1, 2]})
        assert sc.modules == {"i00": "1", "i01": "2", "i02": "1"}

    def test_broken_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidScenario):
            load_scenario(path)


class TestGoldenBytes:
    # two modules, hints, retries and a missing share: every draw stream the simulator takes
    SCENARIO = {
        "n_students": 30,
        "n_items": 6,
        "seed": 11,
        "module_ids": ["ch1", "ch2"],
        "behavior": {"max_attempts": 3, "retry_prob": 0.7, "hint_propensity": 0.4},
        "missing_rate": 0.3,
    }
    # a change to these digests changes simulated bytes: say so in CHANGES.md
    DIGESTS = {
        "log.csv": "d40510ac617c39b7ef076481bcf8f32a6e0c5b6003438ea17e4e2785e2d4ee17",
        "matrix.csv": "47dc236131b4bd357d1e8efc02045fb381545f6af0a05ee4fbb0d4e39c58e8c0",
    }

    def test_simulate_writes_the_pinned_bytes(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        assert cli.main(["simulate", "--input", str(scenario), "--out", str(tmp_path / "out")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestRunScenario:
    def test_outputs_are_coherent(self):
        sc = load_scenario({"n_students": 25, "n_items": 4, "seed": 3, "missing_rate": 0.1})
        out = run_scenario(sc)
        assert isinstance(out.scenario, Scenario)
        assert [sid for sid, _ in out.cohort] == out.matrix.student_ids
        assert out.matrix.item_ids == sorted(p.item_id for p in sc.items)
        assert {(e.student_id, e.exercise_id) for e in out.log.events} == {
            (sid, p.item_id) for sid, _ in out.cohort for p in sc.items
        }

    def test_matrix_columns_follow_item_ids_not_scenario_order(self):
        items = [{"item_id": item_id, "a": 1.0 + k / 10, "b": k / 4 - 0.5} for k, item_id in enumerate("zbma")]
        out = run_scenario(load_scenario({"n_students": 40, "seed": 2, "items": items}))
        assert out.matrix.to_csv().splitlines()[0] == "student_id,a,b,m,z"
        built = build_matrices(aggregate(out.log.events)).matrices[0]
        assert built.item_ids == out.matrix.item_ids
        assert np.array_equal(built.cells, out.matrix.cells)
