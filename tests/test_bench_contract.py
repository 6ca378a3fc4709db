"""The benchmark's operations run and pass the benchmark's own output checks.

perfbench/ops.py calls the library directly (params_to_csv, events_to_csv, the
table writers, to_dict methods); this keeps those names working on tiny inputs,
traced and untraced. ``itemlens pipeline`` runs on tiny inputs from
perfbench/gen.py and its output trees must pass perfbench/check.py, so an
output the benchmark would reject fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itemlens import cli

ROOT = Path(__file__).resolve().parents[1]
OPS = ROOT / "perfbench" / "ops.py"
sys.path.insert(0, str(ROOT / "perfbench"))  # gen.py and check.py never import itemlens

import check  # noqa: E402
import gen  # noqa: E402

SCENARIO = {
    "n_students": 40,
    "n_items": 4,
    "seed": 5,
    "module_ids": ["chA", "chB"],
    "behavior": {"max_attempts": 2, "retry_prob": 0.5, "hint_propensity": 0.3},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    assert cli.main(["simulate", "--input", str(scenario), "--out", str(root / "sim")]) == 0
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((200, 1))
    cells = rng.random((200, 5)) < 1.0 / (1.0 + np.exp(-(theta - np.linspace(-1.0, 1.0, 5))))
    np.save(root / "matrix.npy", cells.astype(np.int8))
    return {"log": root / "sim" / "log.csv", "scenario": scenario, "matrix": root / "matrix.npy"}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind, source", [("pipeline", "log"), ("pipeline", "scenario"), ("matrix", "matrix")])
def test_ops_runs(inputs, tmp_path, kind, source, traced):
    out, spans = tmp_path / "out", tmp_path / "spans.json"
    cmd = [sys.executable, str(OPS), kind, str(inputs[source]), str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "quality_report.csv").exists()
    if traced:
        assert json.loads(spans.read_text())["spans"]


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    rows, csv_tallies = gen.first_correct_log(1, 80, 12)
    gen.write_csv(rows, root / "log.csv")
    rows, jsonl_tallies = gen.practice_log(1, 60, 12)
    gen.write_jsonl(rows, root / "log.jsonl")
    (root / "scenario.json").write_text(json.dumps(gen.scenario(1, 60, 8)))
    return {
        "log_csv": (root / "log.csv", check.expected_metrics_from_tallies(csv_tallies)),
        "log_jsonl": (root / "log.jsonl", check.expected_metrics_from_tallies(jsonl_tallies)),
        "scenario": (root / "scenario.json", None),
    }


@pytest.mark.parametrize("source", ["log_csv", "log_jsonl", "scenario"])
def test_pipeline_passes_bench_checks(bench_inputs, tmp_path, source):
    path, expected = bench_inputs[source]
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(["pipeline", "--input", str(path), "--out", str(out)]) == 0
        assert check.check_metrics(out, expected or check.expected_metrics_from_log(out / "log.csv")) == []
        assert check.check_fit(out) == []
        digests.append(check.tree_digest(out))
    assert digests[0] == digests[1]
