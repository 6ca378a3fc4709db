"""The README's Library examples run as written."""

import json
import re
from pathlib import Path

from itemlens import cli

README = Path(__file__).resolve().parents[1] / "README.md"

SCENARIO = {
    "n_students": 60,
    "n_items": 6,
    "seed": 3,
    "module_ids": ["ch1"],
    "behavior": {"max_attempts": 3, "retry_prob": 0.5, "hint_propensity": 0.25},
}


def _library_blocks() -> list[str]:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run(tmp_path, monkeypatch):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    assert cli.main(["simulate", "--input", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    (tmp_path / "log.csv").write_bytes((tmp_path / "sim" / "log.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert cli.main(["metrics", "--input", "log.csv", "--out", "results"]) == 0
    blocks = _library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].rows
