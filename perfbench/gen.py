"""Seeded input generators for the itemlens benchmark.

Nothing here imports itemlens: a change to the program must not change the
inputs it is measured on. Every generator is a pure function of its seed and
size, and returns the tallies it drew the input from, so the benchmark can
recount the expected metrics without trusting the program.

Event logs have strictly increasing timestamps (one second apart) and are
written student-major, item by item, attempt by attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_TIME = np.datetime64("2024-01-01T00:00:00", "s")
N_MODULES = 4
# Item parameters come from this fixed bank, not from the run's seed: over
# random banks the EM iteration count of one fit ranges from 4 to 22, which
# would swamp every other source of spread between seeds. Students, their
# responses and their behaviour all come from the run's seed.
BANK_SEED = 20221011


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def item_bank(n_items: int):
    """Discriminations a ~ U(0.5, 2) and difficulties b ~ U(-2, 2)."""
    rng = np.random.default_rng(BANK_SEED)
    return rng.uniform(0.5, 2.0, n_items), rng.uniform(-2.0, 2.0, n_items)


def _abilities_and_items(rng, n_students: int, n_items: int):
    a, b = item_bank(n_items)
    return rng.standard_normal(n_students), a, b


def _timestamps(n: int) -> list[str]:
    stamps = np.datetime_as_string(BASE_TIME + np.arange(n, dtype=np.int64), unit="s")
    return [s + "Z" for s in stamps.tolist()]


@dataclass
class Tallies:
    """Per (student, item) counts of attempts, wrong attempts and hints."""

    attempts: np.ndarray
    wrong: np.ndarray
    hints: np.ndarray
    exercise_ids: list[str]
    module_ids: list[str]


def first_correct_log(seed: int, n_students: int, n_items: int, max_attempts: int = 3):
    """Up to ``max_attempts`` attempts per pair, stopping at the first correct one; no hints.

    Returns (rows, tallies) where each row is
    (student_id, exercise_id, module_id, kind, correct) in log order.
    """
    rng = np.random.default_rng((seed, 1))
    theta, a, b = _abilities_and_items(rng, n_students, n_items)
    p = _sigmoid(a[None, :] * (theta[:, None] - b[None, :]))
    hit = rng.random((n_students, n_items, max_attempts)) < p[:, :, None]
    solved = hit.any(axis=2)
    attempts = np.where(solved, hit.argmax(axis=2) + 1, max_attempts)
    wrong = attempts - solved
    students, exercises = _ids("s", n_students), _ids("ex", n_items)
    modules = [f"ch{j % N_MODULES}" for j in range(n_items)]
    rows = []
    for s, sid in enumerate(students):
        att_s, sol_s = attempts[s].tolist(), solved[s].tolist()
        for j, eid in enumerate(exercises):
            mod = modules[j]
            rows.extend([(sid, eid, mod, "attempt", False)] * (att_s[j] - sol_s[j]))
            if sol_s[j]:
                rows.append((sid, eid, mod, "attempt", True))
    hints = np.zeros_like(attempts)
    return rows, Tallies(attempts, wrong, hints, exercises, modules)


def practice_log(
    seed: int,
    n_students: int,
    n_items: int,
    max_attempts: int = 12,
    hint_prob: float = 0.25,
    hint_only_prob: float = 0.04,
):
    """1..max_attempts independent practice attempts per pair, with hints.

    The attempt count is geometric with mean about 2.6, cut at
    ``max_attempts``, and attempts go on after a correct one. A hint precedes
    each attempt with probability ``hint_prob``; a share ``hint_only_prob``
    of pairs holds one hint and no attempt, which leaves a missing cell in
    the response matrix. About 3.2 events per pair, a fifth of them hints.
    """
    rng = np.random.default_rng((seed, 2))
    theta, a, b = _abilities_and_items(rng, n_students, n_items)
    p = _sigmoid(a[None, :] * (theta[:, None] - b[None, :]))
    hint_only = rng.random((n_students, n_items)) < hint_only_prob
    n_att = np.where(hint_only, 0, np.minimum(rng.geometric(0.38, (n_students, n_items)), max_attempts))
    hit = rng.random((n_students, n_items, max_attempts)) < p[:, :, None]
    hinted = rng.random((n_students, n_items, max_attempts)) < hint_prob
    students, exercises = _ids("s", n_students), _ids("ex", n_items)
    modules = [f"ch{j % N_MODULES}" for j in range(n_items)]
    attempts = np.zeros((n_students, n_items), dtype=np.int64)
    wrong = np.zeros_like(attempts)
    hints = np.zeros_like(attempts)
    rows = []
    for s, sid in enumerate(students):
        n_s, hit_s, hint_s = n_att[s].tolist(), hit[s].tolist(), hinted[s].tolist()
        for j, eid in enumerate(exercises):
            mod = modules[j]
            if n_s[j] == 0:
                rows.append((sid, eid, mod, "hint", None))
                hints[s, j] = 1
                continue
            for k in range(n_s[j]):
                if hint_s[j][k]:
                    rows.append((sid, eid, mod, "hint", None))
                    hints[s, j] += 1
                rows.append((sid, eid, mod, "attempt", hit_s[j][k]))
                wrong[s, j] += not hit_s[j][k]
            attempts[s, j] = n_s[j]
    return rows, Tallies(attempts, wrong, hints, exercises, modules)


def write_csv(rows, path: Path) -> None:
    stamps = _timestamps(len(rows))
    lines = ["student_id,exercise_id,module_id,timestamp,kind,correct"]
    for (sid, eid, mod, kind, correct), ts in zip(rows, stamps):
        flag = "" if correct is None else ("true" if correct else "false")
        lines.append(f"{sid},{eid},{mod},{ts},{kind},{flag}")
    path.write_text("\n".join(lines) + "\n")


def write_jsonl(rows, path: Path) -> None:
    # ids are plain ASCII, so formatting by hand gives the same lines as json.dumps
    stamps = _timestamps(len(rows))
    lines = []
    for (sid, eid, mod, kind, correct), ts in zip(rows, stamps):
        flag = "" if correct is None else (', "correct": true' if correct else ', "correct": false')
        lines.append(
            f'{{"student_id": "{sid}", "exercise_id": "{eid}", "module_id": "{mod}", '
            f'"timestamp": "{ts}", "kind": "{kind}"{flag}}}'
        )
    path.write_text("\n".join(lines) + "\n")


def response_matrix(seed: int, n_students: int, n_items: int, missing: float = 0.10, part: int = 0):
    """2PL scores with theta ~ N(0, 1), a ~ U(0.5, 2), b ~ U(-2, 2); -1 marks missing.

    ``part`` numbers independent cohorts drawn from one seed.
    """
    rng = np.random.default_rng((seed, 3, part))
    theta, a, b = _abilities_and_items(rng, n_students, n_items)
    p = _sigmoid(a[None, :] * (theta[:, None] - b[None, :]))
    cells = (rng.random((n_students, n_items)) < p).astype(np.int8)
    cells[rng.random((n_students, n_items)) < missing] = -1
    return cells, a, b


def scenario(seed: int, n_students: int, n_items: int) -> dict:
    """A simulation scenario over the fixed item bank; the program draws the cohort from ``seed``."""
    a, b = item_bank(n_items)
    width = max(2, len(str(n_items - 1)))
    items = [
        {"item_id": f"i{j:0{width}d}", "a": float(a[j]), "b": float(b[j]), "module_id": f"ch{1 + j % 2}"}
        for j in range(n_items)
    ]
    return {
        "n_students": n_students,
        "seed": seed,
        "items": items,
        "behavior": {"max_attempts": 3, "retry_prob": 0.5, "hint_propensity": 0.25},
        "missing_rate": 0.1,
    }
