"""The README's Library examples run as written, and its field tables list every JSON input key."""

import json
import re
from pathlib import Path

import pytest

from itemlens import cli
from itemlens.irt import FIT_FIELDS
from itemlens.simulate import BEHAVIOR_FIELDS, SCENARIO_FIELDS, SCENARIO_ITEM_FIELDS

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


SCHEMAS = {
    "config": cli.CONFIG_FIELDS,
    "fit": FIT_FIELDS,
    "grouping": cli.GROUPING_FIELDS,
    "scenario": SCENARIO_FIELDS,
    "behavior": BEHAVIOR_FIELDS,
    "item": SCENARIO_ITEM_FIELDS,
}


def _documented_keys(kind: str) -> list[str]:
    """The first-column keys of the README table headed ``| <kind> key |``."""
    lines = README.read_text().splitlines()
    start = lines.index(next(ln for ln in lines if ln.startswith(f"| {kind} key |")))
    keys = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        keys.append(re.fullmatch(r"\| `(\w+)` \|.*", line).group(1))
    return keys


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_schema_field_is_documented(kind):
    assert _documented_keys(kind) == [name for name, _, _ in SCHEMAS[kind]]
