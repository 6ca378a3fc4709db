"""perfbench/ops.py runs against the package's public names, traced and untraced.

The benchmark calls the library directly (params_to_csv, events_to_csv, the
table writers, to_dict methods); this keeps those names working on tiny inputs.
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
