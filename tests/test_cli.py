import contextlib
import csv
import io
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from itemlens import cli
from itemlens.irt import FIT_FIELDS, PARAMS, ItemParameters, params_to_csv
from itemlens.metrics import METRICS
from itemlens.simulate import BEHAVIOR_FIELDS, SCENARIO_FIELDS, SCENARIO_ITEM_FIELDS
from itemlens.tables import read_csv, to_json

ANCHOR_PARAMS = [
    ItemParameters("AlistRemovePROp", -0.4715, 6.72),
    ItemParameters("CompareTF-MCQ5p", 0.1614, -2.24),
    ItemParameters("SelSortPROp", 0.0496, -34.98),
    ItemParameters("BTSummaryQuestionsp", -0.0303, 2.20),
    ItemParameters("BSTremovePRO", 0.3297, -0.20),
    ItemParameters("binarySearchPRO", -0.3379, 8.02),
]

SCENARIO = {
    "n_students": 40,
    "n_items": 4,
    "seed": 5,
    "module_ids": ["chA", "chB"],
    "behavior": {"max_attempts": 2, "retry_prob": 0.5, "hint_propensity": 0.3},
}


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = root / "out"
    assert cli.main(["simulate", "--input", str(scenario), "--out", str(out)]) == 0
    return root


@pytest.fixture(scope="module")
def log_path(sim_dir):
    return sim_dir / "out" / "log.csv"


def _tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestValidate:
    def test_clean_log(self, log_path, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["validate", "--input", str(log_path), "--out", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["ok"] is True
        assert report["n_events"] > 0
        assert (out / "effective_config.json").exists()

    def test_violations_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "student_id,exercise_id,module_id,timestamp,kind,correct\n"
            "s1,e1,m1,2026-01-01T00:00:00Z,attempt,true\n"
            "s1,e2,m1,2026-01-01T00:01:00Z,attempt,\n"
        )
        out = tmp_path / "v"
        assert cli.main(["validate", "--input", str(bad), "--out", str(out)]) == 1
        report = json.loads((out / "validation_report.json").read_text())
        assert report["ok"] is False
        assert any(v.startswith("line 3:") for v in report["violations"])

    def test_missing_file_exit_2(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["validate", "--input", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", ["validate", "metrics", "fit", "pipeline"])
    def test_unknown_log_extension_exit_2(self, log_path, tmp_path, command):
        # a .json input is a scenario, never a log; pipeline reads it as one
        for suffix in ["txt"] if command == "pipeline" else ["txt", "json"]:
            odd = tmp_path / f"log.{suffix}"
            odd.write_bytes(log_path.read_bytes())
            assert cli.main([command, "--input", str(odd), "--out", str(tmp_path / "v")]) == 2, suffix


MAYBE_LOG = (
    "student_id,exercise_id,module_id,timestamp,kind,correct\n"
    "s1,e1,m1,2026-01-01T00:00:00Z,attempt,true\n"
    "s1,e2,m1,2026-01-01T00:01:00Z,attempt,maybe\n"
)


@pytest.mark.parametrize("command", ["metrics", "fit"])
def test_rejected_rows_fail_the_run(tmp_path, capsys, command):
    log = tmp_path / "log.csv"
    log.write_text(MAYBE_LOG)
    assert cli.main([command, "--input", str(log), "--out", str(tmp_path / "o")]) == 1
    assert "line 3: correct must be true/false/empty, got 'maybe'" in capsys.readouterr().err


ODD_EXERCISES = ["ex,a", 'ex "q"', "ex b", "plain"]


def _odd_id_log(path: Path) -> None:
    """A fittable log whose exercise, student and module ids need CSV quoting."""
    rng = np.random.default_rng(3)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "exercise_id", "module_id", "timestamp", "kind", "correct"])
        minute = 0
        for s in range(40):
            theta = rng.standard_normal()
            for j, eid in enumerate(ODD_EXERCISES):
                correct = rng.random() < 1.0 / (1.0 + math.exp(-(theta - (j - 1.5) / 2)))
                stamp = f"2026-01-01T{minute // 60:02d}:{minute % 60:02d}:00Z"
                writer.writerow([f's,{s} "x"', eid, "m 1", stamp, "attempt", "true" if correct else "false"])
                minute += 1


def test_classify_reads_back_what_metrics_and_fit_write(tmp_path, capsys):
    log = tmp_path / "log.csv"
    _odd_id_log(log)
    mdir, fdir, cdir = tmp_path / "m", tmp_path / "f", tmp_path / "c"
    assert cli.main(["metrics", "--input", str(log), "--out", str(mdir)]) == 0
    assert cli.main(["fit", "--input", str(log), "--out", str(fdir)]) == 0
    params_path = fdir / "params_m_1.csv"
    code = cli.main(
        ["classify", "--params", str(params_path), "--metrics", str(mdir / "metrics.csv"), "--out", str(cdir)]
        + ["--format", "json"]
    )
    assert code == 0
    assert "warning" not in capsys.readouterr().err
    params = read_csv(PARAMS, params_path.read_text())
    metrics = read_csv(METRICS, (mdir / "metrics.csv").read_text())
    assert sorted(p.item_id for p in params) == sorted(m.exercise_id for m in metrics) == sorted(ODD_EXERCISES)
    rows = {r["item_id"]: r for r in json.loads((cdir / "quality_report.json").read_text())["rows"]}
    assert set(rows) == set(ODD_EXERCISES)
    for p in params:
        assert (rows[p.item_id]["a"], rows[p.item_id]["b"]) == (p.a, p.b)
    for m in metrics:
        assert (rows[m.exercise_id]["module_id"], rows[m.exercise_id]["dl"]) == (m.module_id, m.dl)


class TestMetrics:
    def test_csv_output(self, log_path, tmp_path):
        out = tmp_path / "m"
        assert cli.main(["metrics", "--input", str(log_path), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "exercise_id,module_id,n_students,dl,hr,ir,band"
        assert len([ln for ln in lines[1:] if ln and not ln.startswith("#")]) == 4

    def test_json_output(self, log_path, tmp_path):
        out = tmp_path / "m"
        code = cli.main(
            ["metrics", "--input", str(log_path), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        data = json.loads((out / "metrics.json").read_text())
        assert data["schema_version"] == 1
        assert len(data["exercises"]) == 4
        assert not (out / "metrics.csv").exists()

    def test_empty_log_exit_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("student_id,exercise_id,module_id,timestamp,kind,correct\n")
        assert cli.main(["metrics", "--input", str(empty), "--out", str(tmp_path / "m")]) == 1

    def test_env_var_out_dir(self, log_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
        assert cli.main(["metrics", "--input", str(log_path)]) == 0
        assert (target / "metrics.csv").exists()


class TestFit:
    def test_module_grouping_produces_per_group_files(self, log_path, tmp_path):
        out = tmp_path / "f"
        assert cli.main(["fit", "--input", str(log_path), "--out", str(out)]) == 0
        for group in ("chA", "chB"):
            assert (out / f"params_{group}.csv").exists()
            assert (out / f"curves_{group}.csv").exists()
            assert (out / f"abilities_{group}.csv").exists()
            assert (out / f"diagnostics_{group}.json").exists()
        summary = json.loads((out / "fit_summary.json").read_text())
        assert [g["status"] for g in summary["groups"]] == ["fitted", "fitted"]

    def test_explicit_grouping_file(self, log_path, tmp_path):
        grouping = tmp_path / "groups.json"
        grouping.write_text(
            json.dumps({"map": {"i00": "one", "i01": "one"}, "default_group": "rest"})
        )
        out = tmp_path / "f"
        code = cli.main(
            ["fit", "--input", str(log_path), "--out", str(out), "--grouping", str(grouping)]
        )
        assert code == 0
        assert (out / "params_one.csv").exists()
        assert (out / "params_rest.csv").exists()

    def test_unmapped_exercise_without_default_exit_1(self, log_path, tmp_path):
        grouping = tmp_path / "groups.json"
        grouping.write_text(json.dumps({"map": {"i00": "one"}}))
        out = tmp_path / "f"
        code = cli.main(
            ["fit", "--input", str(log_path), "--out", str(out), "--grouping", str(grouping)]
        )
        assert code == 1

    def test_no_fittable_group_exit_1(self, tmp_path):
        # two students cannot clear the min_students floor
        log = tmp_path / "thin.csv"
        log.write_text(
            "student_id,exercise_id,module_id,timestamp,kind,correct\n"
            "s1,e1,m1,2026-01-01T00:00:00Z,attempt,true\n"
            "s1,e2,m1,2026-01-01T00:01:00Z,attempt,false\n"
            "s2,e1,m1,2026-01-01T00:02:00Z,attempt,false\n"
            "s2,e2,m1,2026-01-01T00:03:00Z,attempt,true\n"
        )
        out = tmp_path / "f"
        assert cli.main(["fit", "--input", str(log), "--out", str(out)]) == 1
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["groups"][0]["status"] == "skipped"

    def test_rerun_is_byte_identical(self, log_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["fit", "--input", str(log_path), "--out", str(out)]) == 0
        assert _tree(out1) == _tree(out2)


def test_each_stage_writes_the_same_files_in_every_command(log_path, tmp_path):
    for command in ("metrics", "fit", "pipeline"):
        assert cli.main([command, "--input", str(log_path), "--out", str(tmp_path / command)]) == 0
    metrics, fit, pipeline = (_tree(tmp_path / command) for command in ("metrics", "fit", "pipeline"))
    assert metrics["metrics.csv"] == pipeline["metrics.csv"]
    fit_files = {name for name in fit if name.startswith(("params_", "curves_", "abilities_", "diagnostics_"))}
    assert len(fit_files) == 8
    for name in fit_files | {"fit_summary.json"}:
        assert fit[name] == pipeline[name], name


class TestClassify:
    def _params_file(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text(params_to_csv(ANCHOR_PARAMS))
        return path

    def test_compat_flags_all_anchor_items(self, tmp_path):
        out = tmp_path / "c"
        code = cli.main(
            [
                "classify",
                "--params",
                str(self._params_file(tmp_path)),
                "--out",
                str(out),
                "--table2-compat",
            ]
        )
        assert code == 0
        summary = json.loads((out / "quality_summary.json").read_text())
        assert summary["n_poor"] == 6
        assert summary["table2_compat"] is True
        assert (out / "quality_report.csv").exists()

    def test_strict_cut_spares_borderline_item(self, tmp_path):
        out = tmp_path / "c"
        code = cli.main(
            ["classify", "--params", str(self._params_file(tmp_path)), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "quality_summary.json").read_text())
        assert summary["n_poor"] == 5

    def test_metrics_join(self, log_path, tmp_path, capsys):
        mdir = tmp_path / "m"
        assert cli.main(["metrics", "--input", str(log_path), "--out", str(mdir)]) == 0
        fdir = tmp_path / "f"
        assert cli.main(["fit", "--input", str(log_path), "--out", str(fdir)]) == 0
        params = tmp_path / "params.csv"
        text = (fdir / "params_chA.csv").read_text()
        params.write_text(text)
        out = tmp_path / "c"
        code = cli.main(
            [
                "classify",
                "--params",
                str(params),
                "--metrics",
                str(mdir / "metrics.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics for unknown item" in err  # chB items have no chA params
        report = (out / "quality_report.csv").read_text()
        assert "i00" in report

    def test_json_format(self, tmp_path):
        out = tmp_path / "c"
        code = cli.main(
            [
                "classify",
                "--params",
                str(self._params_file(tmp_path)),
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads((out / "quality_report.json").read_text())
        assert len(data["rows"]) == 6

    def test_empty_params_exit_1(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("item_id,a,b,se_a,se_b,degenerate\n")
        assert cli.main(["classify", "--params", str(path), "--out", str(tmp_path / "c")]) == 1

    def test_junk_params_exit_1(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("foo,bar\n1,2\n")
        assert cli.main(["classify", "--params", str(path), "--out", str(tmp_path / "c")]) == 1

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_non_finite_params_exit_1(self, tmp_path, capsys, suffix):
        items = [ItemParameters("nan_b", 1.0, math.nan), ItemParameters("inf_a", math.inf, 0.5)]
        for item in items:
            path = tmp_path / f"params.{suffix}"
            if suffix == "csv":
                path.write_text(params_to_csv([item]))
            else:
                path.write_text(json.dumps(to_json(PARAMS, [item])))
            out = tmp_path / "c"
            assert cli.main(["classify", "--params", str(path), "--out", str(out)]) == 1
            column = "b" if item.item_id == "nan_b" else "a"
            where = "line 2," if suffix == "csv" else "bad items JSON:"
            assert f"{where} {column}: expected a finite number" in capsys.readouterr().err
            assert not (out / "quality_report.csv").exists()


class TestSimulate:
    def test_artifacts_written(self, sim_dir):
        out = sim_dir / "out"
        for name in ("log.csv", "truth_params.csv", "truth_abilities.csv", "matrix.csv"):
            assert (out / name).exists()

    def test_seed_repeat_identical(self, sim_dir, tmp_path):
        scenario = sim_dir / "scenario.json"
        out = tmp_path / "again"
        assert cli.main(["simulate", "--input", str(scenario), "--out", str(out)]) == 0
        assert (out / "log.csv").read_bytes() == (sim_dir / "out" / "log.csv").read_bytes()

    def test_seed_override_changes_output(self, sim_dir, tmp_path):
        scenario = sim_dir / "scenario.json"
        out = tmp_path / "seeded"
        code = cli.main(
            ["simulate", "--input", str(scenario), "--out", str(out), "--seed", "99"]
        )
        assert code == 0
        assert (out / "log.csv").read_bytes() != (sim_dir / "out" / "log.csv").read_bytes()
        cfg = json.loads((out / "effective_config.json").read_text())
        assert cfg["seed"] == 99

    def test_invalid_scenario_exit_1(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"n_students": 0, "n_items": 2}))
        assert cli.main(["simulate", "--input", str(scenario), "--out", str(tmp_path / "o")]) == 1


class TestPipeline:
    def test_scenario_run_full_artifacts(self, sim_dir, tmp_path):
        out = tmp_path / "p"
        code = cli.main(["pipeline", "--input", str(sim_dir / "scenario.json"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "pipeline_summary.json").read_text())
        assert {s: v["status"] for s, v in summary["stages"].items()} == {
            "simulate": "ok",
            "validate": "ok",
            "metrics": "ok",
            "fit": "ok",
            "classify": "ok",
            "recovery": "ok",
        }
        for name in summary["artifacts"]:
            assert (out / name).exists(), name
        assert "recovery.json" in summary["artifacts"]
        recovery = json.loads((out / "recovery.json").read_text())
        assert recovery["n_items"] == 4

    def test_log_input_has_no_recovery(self, log_path, tmp_path):
        out = tmp_path / "p"
        assert cli.main(["pipeline", "--input", str(log_path), "--out", str(out)]) == 0
        summary = json.loads((out / "pipeline_summary.json").read_text())
        assert "recovery" not in summary["stages"]
        assert not (out / "recovery.json").exists()

    def test_broken_log_stops_early(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "student_id,exercise_id,module_id,timestamp,kind,correct\n"
            "s1,e1,m1,not-a-time,attempt,true\n"
        )
        out = tmp_path / "p"
        assert cli.main(["pipeline", "--input", str(bad), "--out", str(out)]) == 1
        summary = json.loads((out / "pipeline_summary.json").read_text())
        assert summary["stages"]["validate"]["status"] == "failed"
        assert "metrics" not in summary["stages"]
        assert not (out / "metrics.csv").exists()

    def test_reruns_byte_identical(self, sim_dir, tmp_path):
        outs = [tmp_path / "p1", tmp_path / "p2"]
        for out in outs:
            code = cli.main(
                ["pipeline", "--input", str(sim_dir / "scenario.json"), "--out", str(out)]
            )
            assert code == 0
        assert _tree(outs[0]) == _tree(outs[1])

    def test_json_format_swaps_tabular_artifacts(self, sim_dir, tmp_path):
        out = tmp_path / "p"
        code = cli.main(
            [
                "pipeline",
                "--input",
                str(sim_dir / "scenario.json"),
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        summary = json.loads((out / "pipeline_summary.json").read_text())
        assert "metrics.json" in summary["artifacts"]
        assert "quality_report.json" in summary["artifacts"]
        assert "metrics.csv" not in summary["artifacts"]


class TestConfigPrecedence:
    def test_flag_overrides_file(self, log_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.5, "table2_compat": True}))
        out = tmp_path / "m"
        code = cli.main(
            [
                "metrics",
                "--input",
                str(log_path),
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--threshold",
                "0.9",
            ]
        )
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["threshold"] == 0.9
        assert effective["table2_compat"] is True  # file value survives when flag absent

    def test_file_overrides_defaults(self, log_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.5, "fit": {"n_nodes": 21}}))
        out = tmp_path / "m"
        code = cli.main(
            ["metrics", "--input", str(log_path), "--out", str(out), "--config", str(cfg)]
        )
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["threshold"] == 0.5
        assert effective["fit"]["n_nodes"] == 21

    def test_effective_config_contents(self, log_path, tmp_path):
        out = tmp_path / "m"
        assert cli.main(["metrics", "--input", str(log_path), "--out", str(out)]) == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["command"] == "metrics"
        assert effective["input"] == "log.csv"  # basename only
        assert effective["format"] == "csv"
        assert effective["fit"]["n_nodes"] == 41

    @pytest.mark.parametrize(
        "content",
        [
            "{broken",
            json.dumps({"threshold": 1.5}),
            json.dumps({"fit": {"bogus": 1}}),
            "[1]",
            json.dumps({"seed": [1]}),
            json.dumps({"seed": "x"}),
            json.dumps({"grouping": 5}),
            json.dumps({"default_group": 5}),
            json.dumps({"table2_compat": "no"}),
            json.dumps({"threshold": True}),
            json.dumps({"fit": None}),
            json.dumps({"fit": {"n_nodes": "many"}}),
            json.dumps({"fit": {"n_nodes": 21.5}}),
            json.dumps({"fit": {"max_iter": True}}),
            json.dumps({"fit": {"tol": None}}),
        ],
    )
    def test_bad_config_exit_2(self, log_path, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code = cli.main(
            ["metrics", "--input", str(log_path), "--out", str(tmp_path / "m"), "--config", str(cfg)]
        )
        assert code == 2

    def test_bad_threshold_flag_exit_2(self, log_path, tmp_path):
        code = cli.main(
            [
                "metrics",
                "--input",
                str(log_path),
                "--out",
                str(tmp_path / "m"),
                "--threshold",
                "0",
            ]
        )
        assert code == 2


_BAD_FITS = [
    {"a_bound": 0}, {"max_iter": 0}, {"tol": -1}, {"min_students": -5}, {"n_nodes": 1}, {"node_lo": 3, "node_hi": -3}
]
_BAD_SCENARIOS = [
    {"missing_rate": None},
    {"behavior": {"retry_prob": None}},
    {"a_range": "ab"},
    {"n_students": True},
    {"n_students": 50.0},
    {"seed": 1.5},
    {"ability_sd": "2"},
    {"behavior": {"max_attempts": 2.7}},
    {"module_ids": "abc"},
    {"ability_mean": math.nan},
]
_BAD_INPUTS = [
    *[("config", {"fit": fit}, 2) for fit in _BAD_FITS],
    ("grouping", {"map": {}, "default_group": True}, 2),
    *[("scenario", {"n_students": 30, "n_items": 4, **change}, 1) for change in _BAD_SCENARIOS],
]


@pytest.mark.parametrize("kind, content, code", _BAD_INPUTS, ids=[json.dumps(c) for _, c, _ in _BAD_INPUTS])
def test_bad_input_file_stops_the_run(log_path, tmp_path, kind, content, code):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "o"
    if kind == "scenario":
        argv = ["simulate", "--input", str(path)]
    else:
        argv = ["fit", "--input", str(log_path), f"--{kind}", str(path)]
    got, err = _run([*argv, "--out", str(out)])
    assert got == code and err.startswith("error: ") and "Traceback" not in err, err
    assert not (out / "log.csv").exists() and not list(out.glob("params_*"))


@pytest.mark.parametrize("kind", ["config", "grouping", "scenario", "params"])
def test_too_deeply_nested_input_file_stops_the_run(log_path, tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    if kind == "scenario":
        argv = ["simulate", "--input", str(path)]
    elif kind == "params":
        argv = ["classify", "--params", str(path)]
    else:
        argv = ["fit", "--input", str(log_path), f"--{kind}", str(path)]
    code, err = _run([*argv, "--out", str(tmp_path / "o")])
    assert code == (2 if kind in ("config", "grouping") else 1) and err.startswith("error: "), err


def _module_conflict_log(path: Path) -> None:
    """40 students x 6 exercises in m1 (ex0-ex2) and m2 (ex3-ex5); the even students log ex0 under m2."""
    rng = np.random.default_rng(5)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "exercise_id", "module_id", "timestamp", "kind", "correct"])
        minute = 0
        for s in range(40):
            theta = rng.standard_normal()
            for j in range(6):
                module = "m2" if j >= 3 or (j == 0 and s % 2 == 0) else "m1"
                correct = rng.random() < 1.0 / (1.0 + math.exp(-(theta - (j % 3 - 1) / 2)))
                stamp = f"2026-01-01T{minute // 60:02d}:{minute % 60:02d}:00Z"
                writer.writerow([f"s{s:02d}", f"ex{j}", module, stamp, "attempt", "true" if correct else "false"])
                minute += 1


def test_pipeline_fits_a_module_conflicted_exercise_once(tmp_path):
    log = tmp_path / "log.csv"
    _module_conflict_log(log)
    out = tmp_path / "p"
    assert cli.main(["pipeline", "--input", str(log), "--out", str(out)]) == 0
    holders = [
        path.name
        for path in sorted(out.glob("params_*.csv"))
        if "ex0" in {p.item_id for p in read_csv(PARAMS, path.read_text())}
    ]
    assert holders == ["params_m1.csv"]
    metrics = {m.exercise_id: m.module_id for m in read_csv(METRICS, (out / "metrics.csv").read_text())}
    assert metrics["ex0"] == "m1"
    summary = json.loads((out / "pipeline_summary.json").read_text())
    assert summary["stages"]["metrics"]["module_conflicts"] == 1


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_equal_true_slopes_write_strict_json(tmp_path):
    scenario = tmp_path / "flat.json"
    scenario.write_text(json.dumps({"n_students": 300, "n_items": 10, "seed": 3, "a_range": [1.0, 1.0]}))
    out = tmp_path / "p"
    assert cli.main(["pipeline", "--input", str(scenario), "--out", str(out)]) == 0
    artifacts = sorted(out.glob("*.json"))
    assert "recovery.json" in [p.name for p in artifacts]
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    recovery = json.loads((out / "recovery.json").read_text())
    assert recovery["corr_a"] is None
    assert recovery["undefined"] == ["corr_a"]
    assert recovery["corr_b"] > 0.9


def test_fit_seed_is_an_unknown_key(log_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"seed": 1}}))
    out = tmp_path / "m"
    assert cli.main(["metrics", "--input", str(log_path), "--out", str(out), "--config", str(cfg)]) == 2
    assert cli.main(["metrics", "--input", str(log_path), "--out", str(out), "--seed", "4"]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["seed"] == 4
    assert "seed" not in effective["fit"]


OUT_OF_ORDER_LOG = (
    "student_id,exercise_id,module_id,timestamp,kind,correct\n"
    "s1,e1,m1,2024-03-01T10:00:00Z,attempt,true\n"
    "s1,e2,m1,2023-03-01T10:00:00Z,attempt,false\n"
)


def test_out_of_order_row_is_rejected_by_every_log_command(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(OUT_OF_ORDER_LOG)
    reason = "line 3: timestamp not after line 2's"
    assert cli.main(["metrics", "--input", str(log), "--out", str(tmp_path / "m")]) == 1
    assert reason in capsys.readouterr().err.splitlines()
    for command in ("validate", "pipeline"):
        out = tmp_path / command
        assert cli.main([command, "--input", str(log), "--out", str(out)]) == 1
        report = json.loads((out / "validation_report.json").read_text())
        assert (report["n_events"], report["violations"]) == (1, [reason])


def _colliding_groups_log(path: Path) -> None:
    """60 students x 6 exercises, three in module "m 1" and three in "m_1"."""
    rng = np.random.default_rng(8)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "exercise_id", "module_id", "timestamp", "kind", "correct"])
        minute = 0
        for s in range(60):
            theta = rng.standard_normal()
            for j in range(6):
                correct = rng.random() < 1.0 / (1.0 + math.exp(-(theta - (j % 3 - 1) / 2)))
                stamp = f"2026-01-01T{minute // 60:02d}:{minute % 60:02d}:00Z"
                module = "m 1" if j < 3 else "m_1"
                writer.writerow([f"s{s:02d}", f"ex{j}", module, stamp, "attempt", "true" if correct else "false"])
                minute += 1


@pytest.mark.parametrize("command", ["fit", "pipeline"])
def test_groups_sharing_a_file_name_fail_before_writing(tmp_path, capsys, command):
    log = tmp_path / "log.csv"
    _colliding_groups_log(log)
    out = tmp_path / "o"
    assert cli.main([command, "--input", str(log), "--out", str(out)]) == 1
    assert "groups 'm 1' and 'm_1' would both write params_m_1.csv" in capsys.readouterr().err
    assert not list(out.glob("params_*")) and not list(out.glob("diagnostics_*"))


def _pipeline_failure_input(tmp_path: Path, case: str) -> tuple[list[str], int, list[str]]:
    """Arguments, exit code and the stages that finish before the run fails."""
    log = tmp_path / "log.csv"
    _colliding_groups_log(log)
    if case == "colliding-groups":
        return ["--input", str(log)], 1, ["metrics", "validate"]
    if case == "bad-grouping":
        (tmp_path / "groups.json").write_text("{broken")
        return ["--input", str(log), "--grouping", str(tmp_path / "groups.json")], 2, ["metrics", "validate"]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"n_students": 0, "n_items": 2}))
    return ["--input", str(scenario)], 1, []


@pytest.mark.parametrize("case", ["colliding-groups", "bad-grouping", "bad-scenario"])
def test_pipeline_summary_is_written_on_a_failed_run(tmp_path, case):
    argv, code, stages = _pipeline_failure_input(tmp_path, case)
    out = tmp_path / "o"
    assert cli.main(["pipeline", *argv, "--out", str(out)]) == code
    summary = json.loads((out / "pipeline_summary.json").read_text())
    assert sorted(summary["stages"]) == stages
    assert summary["artifacts"] == sorted(set(_tree(out)) - {"pipeline_summary.json"})


@pytest.mark.parametrize(
    "item",
    [
        {"item_id": "", "a": 1.0, "b": 0.0},
        {"item_id": " a ", "a": 1.0, "b": 0.0},
        {"item_id": "a", "a": 1.0, "b": 0.0, "module_id": "m1 "},
    ],
    ids=["empty", "padded-item", "padded-module"],
)
def test_simulate_rejects_ids_a_log_cannot_carry(tmp_path, item):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"n_students": 30, "items": [item, {"item_id": "b", "a": 1.0, "b": 0.5}]}))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--input", str(scenario), "--out", str(out)]) == 1
    assert not (out / "log.csv").exists()


# fuzzed logs: awkward ids, module conflicts ("m 1" and "m_1" also share a file
# name), hint-only pairs, out-of-order and equal stamps, and now and then a bad row
_FUZZ_ROW = st.tuples(
    st.sampled_from(["s1", "s 2", "s,3", 's"4"']),
    st.sampled_from(["e1", "e,2", 'e "3"', " e4 "]),
    st.sampled_from(["m1", "m1", "m 1", "m_1"]),
    st.sampled_from([1, 1, 1, 2, 0, -1]),  # minutes after the previous row
    st.sampled_from([("attempt", True), ("attempt", False), ("hint", None), ("HINT", None)]),
    st.sampled_from([None] * 8 + ["offset", "stamp", "fields", "junk", "kind", "cell", "correct", "empty-id"]),
)


def _fuzz_text(rows, fmt: str, careful: bool) -> str:
    """The log text; a careful log keeps its stamps rising and writes no bad row."""
    base = datetime(2026, 1, 1, tzinfo=timezone.utc)
    minute = 0
    lines = []
    for sid, eid, module, step, (kind, correct), quirk in rows:
        if careful:
            step, quirk = max(step, 1), quirk if quirk == "offset" else None
        minute += step
        instant = base + timedelta(minutes=minute)
        stamp = instant.strftime("%Y-%m-%dT%H:%M:%SZ")
        if quirk == "offset":  # the same instant, written with a +01:00 offset
            stamp = (instant + timedelta(hours=1)).strftime("%Y-%m-%dT%H:%M:%S+01:00")
        elif quirk == "stamp":
            stamp = "not-a-time"
        elif quirk == "kind":
            kind = "pageview"
        elif quirk == "cell":
            correct = "yes"
        elif quirk == "correct":  # an attempt without a value, a hint with one
            correct = True if correct is None else None
        elif quirk == "empty-id":
            sid = ""
        if fmt == "jsonl":
            obj = {"student_id": sid, "exercise_id": eid, "module_id": module, "timestamp": stamp, "kind": kind}
            if correct is not None:
                obj["correct"] = correct
            if quirk == "fields":
                del obj["kind"]
            lines.append("{not json" if quirk == "junk" else json.dumps(obj))
        else:
            cell = {True: "true", False: "false", None: ""}.get(correct, correct)
            cells = [sid, eid, module, stamp, kind, cell][: 5 if quirk == "fields" else 6]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(["junk"] if quirk == "junk" else cells)
            lines.append(buf.getvalue().rstrip("\n"))
    header = [] if fmt == "jsonl" else ["student_id,exercise_id,module_id,timestamp,kind,correct"]
    return "\n".join(header + lines) + "\n"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


_FITTABLE = [  # three students on two items in m1: every command exits 0
    ("s1", "e1", "m1", 1, ("attempt", True), None),
    ("s 2", "e1", "m1", 1, ("attempt", False), None),
    ("s1", "e,2", "m1", 1, ("attempt", False), None),
    ("s 2", "e,2", "m1", 1, ("attempt", True), None),
    ("s,3", "e1", "m1", 1, ("attempt", True), None),
    ("s,3", "e,2", "m1", 1, ("attempt", True), "offset"),
]


_COLLIDING = [  # groups "m 1" and "m_1" share a file name, so the fit fails after metrics.csv is written
    (sid, eid, module, 1, ("attempt", bool(answer)), None)
    for sid, answers in [("s1", [1, 0, 0, 1]), ("s 2", [0, 0, 1, 0]), ("s,3", [0, 1, 0, 0])]
    for (eid, module), answer in zip([("e1", "m 1"), ("e,2", "m 1"), ('e "3"', "m_1"), (" e4 ", "m_1")], answers)
]


@settings(max_examples=50, deadline=None)
@example(_FITTABLE, "jsonl", True)
@example(_COLLIDING, "csv", True)
@given(st.lists(_FUZZ_ROW, max_size=30), st.sampled_from(["csv", "jsonl"]), st.booleans())
def test_fuzzed_logs_exit_cleanly_and_account_for_every_row(rows, fmt, careful):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / f"log.{fmt}"
        log.write_text(_fuzz_text(rows, fmt, careful))
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({"fit": {"min_students": 2}}))  # so that tiny groups reach the fit
        rejected = {}
        for command in ("validate", "metrics", "fit", "pipeline"):
            out = Path(tmp) / command
            code, err = _run([command, "--input", str(log), "--out", str(out), "--config", str(config)])
            assert code in (0, 1, 2), (command, err)
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)
            if command == "pipeline" and (out / "effective_config.json").exists():
                summary = json.loads((out / "pipeline_summary.json").read_text())
                assert summary["artifacts"] == sorted(set(_tree(out)) - {"pipeline_summary.json"})
            if command in ("validate", "pipeline"):
                report = json.loads((out / "validation_report.json").read_text())
                lines = [v for v in report["violations"] if v.startswith("line ")]
                assert report["n_events"] + len(lines) == len(rows)
                rejected[command] = lines
            else:
                rejected[command] = [ln for ln in err.splitlines() if ln.startswith("line ")]
            if rejected[command]:
                assert code == 1
        assert rejected["metrics"] == rejected["fit"] == rejected["pipeline"] == rejected["validate"]


# fuzzed JSON input files: a valid config, grouping or scenario with one key,
# perhaps an unknown one, set to a drawn value that is often of the wrong type,
# null, not finite or out of range
_FUZZ_KEYS = [
    (kind, name)
    for kind, fields in [
        ("config", cli.CONFIG_FIELDS),
        ("fit", FIT_FIELDS),
        ("grouping", cli.GROUPING_FIELDS),
        ("scenario", SCENARIO_FIELDS),
        ("behavior", BEHAVIOR_FIELDS),
        ("item", SCENARIO_ITEM_FIELDS),
    ]
    for name in [*(name for name, _, _ in fields), "bogus"]
]
_FUZZ_VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, 1.5, 10**400, math.nan, math.inf, "", "x", " a ", [], [0.5, 1.0], ["m1"], {},
    {"i00": "g"},
]


def _fuzz_input(kind: str, key: str, value) -> tuple[str, dict]:
    """The command and the file of one fuzzed key."""
    if kind in ("config", "fit"):
        data = {"fit": {"min_students": 2}}
        (data["fit"] if kind == "fit" else data)[key] = value
        return "config", data
    if kind == "grouping":
        return "grouping", {"map": {"i00": "one"}, "default_group": "rest", key: value}
    data = {"n_students": 20, "n_items": 3, "behavior": {"max_attempts": 2, "retry_prob": 0.5}}
    if kind == "item":
        data["items"] = [{"item_id": "i0", "a": 1.0, "b": 0.0, key: value}, {"item_id": "i1", "a": 1.5, "b": 0.5}]
    (data["behavior"] if kind == "behavior" else data)[key] = value
    return "scenario", data


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES))
def test_fuzzed_input_files_exit_cleanly(log_path, key, value):
    kind, data = _fuzz_input(*key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        if kind == "scenario":
            argv = ["pipeline", "--input", str(path)]
        else:
            argv = ["fit", "--input", str(log_path), f"--{kind}", str(path)]
        code, err = _run([*argv, "--out", str(out)])
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code == 2:
            assert err.startswith("error: ")
