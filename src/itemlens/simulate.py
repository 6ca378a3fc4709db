"""Synthetic cohorts, response matrices, and event logs from known truth.

Everything is deterministic given the scenario and seed. Randomness comes
from numpy's default PCG64 generator, seeded per (student, item) pair with a
tuple (seed, purpose tag, student index, item index), so any pair's draws
are reproducible in isolation and generation order never matters. Normal
ability draws go through the inverse normal CDF applied to open-interval
uniforms (53-bit integers mapped into (0, 1)), avoiding platform-dependent
rejection samplers.

Correctness draws live on their own stream, separate from behavior draws
(hints, retries). With max_attempts = 1 the first correctness draw is the
only one, so generate_responses and generate_event_log agree cell for cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import timedelta
from pathlib import Path
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .events import EventKind, InteractionEvent, parse_timestamp
from .irt import ItemParameters, icc_prob
from .response import MISSING, ResponseMatrix
from .tables import FLOAT, ID, INT, TEXT, Table, list_of, load_fields, number_fields, optional, record

_TAG_COHORT = 1
_TAG_CORRECT = 2
_TAG_BEHAVIOR = 3
_TAG_MISSING = 4
_TAG_ITEMS = 5

_BASE_TIME = "2026-01-01T00:00:00Z"
_ONE_MINUTE = timedelta(minutes=1)

_STD_NORMAL = NormalDist()


class LengthMismatch(ValueError):
    pass


class InvalidScenario(ValueError):
    pass


class EmptyComparison(ValueError):
    """Recovery statistics need at least one item."""


@dataclass(frozen=True)
class CohortSpec:
    n_students: int
    ability_mean: float = 0.0
    ability_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_students <= 0:
            raise InvalidScenario(f"n_students must be positive, got {self.n_students}")
        if not self.ability_sd > 0:
            raise InvalidScenario(f"ability_sd must be positive, got {self.ability_sd}")


@dataclass(frozen=True)
class BehaviorSpec:
    """Attempt/hint policy per (student, item).

    Before each attempt a hint fires with probability hint_propensity. After
    a wrong attempt the student retries with probability retry_prob, up to
    max_attempts total; a correct attempt always ends the pair.
    """

    max_attempts: int = 1
    retry_prob: float = 0.0
    hint_propensity: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidScenario(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("retry_prob", "hint_propensity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidScenario(f"{name} must be in [0, 1], got {v}")


def _open_uniform(rng: np.random.Generator, size: int | None = None):
    """Uniform draws strictly inside (0, 1): 53-bit integers over 2^53."""
    k = rng.integers(1, 1 << 53, size=size, dtype=np.int64)
    return k / float(1 << 53)


def _pair_rng(seed: int, tag: int, sidx: int, iidx: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, sidx, iidx))


TRUE_ABILITIES = Table("students", None, [("student_id", TEXT), ("theta", FLOAT)])


def sample_cohort(spec: CohortSpec) -> list[tuple[str, float]]:
    """Draw (student_id, true ability) pairs; ids are zero-padded, sorted."""
    rng = np.random.default_rng((spec.seed, _TAG_COHORT))
    u = _open_uniform(rng, spec.n_students)
    width = max(3, len(str(spec.n_students - 1)))
    return [
        (f"s{i:0{width}d}", spec.ability_mean + spec.ability_sd * _STD_NORMAL.inv_cdf(float(u[i])))
        for i in range(spec.n_students)
    ]


def _check_missing_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise InvalidScenario(f"missing_rate must be in [0, 1), got {rate}")


def generate_responses(
    cohort: Sequence[tuple[str, float]],
    items: Sequence[ItemParameters],
    seed: int,
    missing_rate: float = 0.0,
    group_id: str = "sim",
) -> ResponseMatrix:
    """Bernoulli(ICC) scores per (student, item), optionally thinned.

    Cell (s, i) uses the first draw of the pair's correctness stream, which
    is also the first attempt's draw in generate_event_log.
    """
    _check_missing_rate(missing_rate)
    n_s, n_i = len(cohort), len(items)
    cells = np.full((n_s, n_i), MISSING, dtype=np.int8)
    for sidx, (_, theta) in enumerate(cohort):
        probs = [icc_prob(it.a, it.b, theta) for it in items]
        for iidx in range(n_i):
            if missing_rate > 0.0:
                u_miss = _open_uniform(_pair_rng(seed, _TAG_MISSING, sidx, iidx))
                if u_miss < missing_rate:
                    continue
            u = _open_uniform(_pair_rng(seed, _TAG_CORRECT, sidx, iidx))
            cells[sidx, iidx] = 1 if u < probs[iidx] else 0
    return ResponseMatrix(
        group_id=group_id,
        student_ids=[sid for sid, _ in cohort],
        item_ids=[it.item_id for it in items],
        cells=cells,
    )


@dataclass
class SimulatedLog:
    """The emitted events; tally them with :func:`itemlens.events.aggregate`."""

    events: list[InteractionEvent]


def generate_event_log(
    cohort: Sequence[tuple[str, float]],
    items: Sequence[ItemParameters],
    behavior: BehaviorSpec,
    seed: int,
    modules: dict[str, str] | None = None,
) -> SimulatedLog:
    """Emit a full interaction log.

    Events come out in canonical order (student, item, sequence) with
    strictly increasing timestamps on a one-minute grid, so the log reads
    back through :func:`itemlens.events.parse_event_log` unchanged.
    """
    modules = modules or {}
    base = parse_timestamp(_BASE_TIME)
    events: list[InteractionEvent] = []
    item_order = sorted(range(len(items)), key=lambda j: items[j].item_id)
    tick = 0
    for sidx, (sid, theta) in enumerate(cohort):
        for iidx in item_order:
            it = items[iidx]
            module = modules.get(it.item_id, "sim")
            p = icc_prob(it.a, it.b, theta)
            rng_c = _pair_rng(seed, _TAG_CORRECT, sidx, iidx)
            rng_b = _pair_rng(seed, _TAG_BEHAVIOR, sidx, iidx)
            for attempt in range(behavior.max_attempts):
                if behavior.hint_propensity > 0.0 and _open_uniform(rng_b) < behavior.hint_propensity:
                    events.append(
                        InteractionEvent(
                            student_id=sid,
                            exercise_id=it.item_id,
                            module_id=module,
                            timestamp=base + tick * _ONE_MINUTE,
                            kind=EventKind.HINT,
                        )
                    )
                    tick += 1
                correct = bool(_open_uniform(rng_c) < p)
                events.append(
                    InteractionEvent(
                        student_id=sid,
                        exercise_id=it.item_id,
                        module_id=module,
                        timestamp=base + tick * _ONE_MINUTE,
                        kind=EventKind.ATTEMPT,
                        correct=correct,
                    )
                )
                tick += 1
                if correct or attempt + 1 >= behavior.max_attempts:
                    break
                if behavior.retry_prob <= 0.0 or _open_uniform(rng_b) >= behavior.retry_prob:
                    break
            tick += 1
    return SimulatedLog(events=events)


@dataclass(frozen=True)
class RecoveryStats:
    """Recovery of true item parameters by fitted ones.

    A correlation is undefined (None, and named in ``undefined``) when
    either side is constant.
    """

    n_items: int
    rmse_a: float
    rmse_b: float
    corr_a: float | None
    corr_b: float | None
    max_err_a: float
    max_err_b: float
    undefined: list[str]

    def to_dict(self) -> dict:
        return asdict(self)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    xd = x - x.mean()
    yd = y - y.mean()
    den = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if den == 0.0:
        return None
    return float(xd @ yd) / den


def recovery_report(
    true_params: Sequence[ItemParameters],
    fitted_params: Sequence[ItemParameters],
) -> RecoveryStats:
    """Per-parameter RMSE, Pearson correlation, and max absolute error.

    Lists are aligned by item_id, so ordering differences do not matter.
    Raises :class:`EmptyComparison` when there is no item to compare.
    """
    if len(true_params) != len(fitted_params):
        raise LengthMismatch(f"{len(true_params)} true vs {len(fitted_params)} fitted items")
    true_by_id = {p.item_id: p for p in true_params}
    fit_by_id = {p.item_id: p for p in fitted_params}
    if set(true_by_id) != set(fit_by_id):
        raise LengthMismatch("true and fitted parameter item ids differ")
    ids = sorted(true_by_id)
    if not ids:
        raise EmptyComparison("no items to compare")
    ta = np.array([true_by_id[i].a for i in ids])
    tb = np.array([true_by_id[i].b for i in ids])
    fa = np.array([fit_by_id[i].a for i in ids])
    fb = np.array([fit_by_id[i].b for i in ids])
    ea, eb = fa - ta, fb - tb
    corr = {"corr_a": _pearson(ta, fa), "corr_b": _pearson(tb, fb)}
    return RecoveryStats(
        n_items=len(ids),
        rmse_a=float(np.sqrt(np.mean(ea * ea))),
        rmse_b=float(np.sqrt(np.mean(eb * eb))),
        max_err_a=float(np.max(np.abs(ea))),
        max_err_b=float(np.max(np.abs(eb))),
        undefined=[name for name, value in corr.items() if value is None],
        **corr,
    )


@dataclass
class Scenario:
    cohort: CohortSpec
    items: list[ItemParameters]
    modules: dict[str, str]
    behavior: BehaviorSpec
    missing_rate: float = 0.0

    def __post_init__(self):
        _check_missing_rate(self.missing_rate)
        ids = [it.item_id for it in self.items]
        # ids the log carries must survive re-reading, which strips cells and rejects an empty exercise id
        if len(set(ids)) != len(ids) or "" in ids:
            raise InvalidScenario("item ids must be unique and not empty")
        for ident in [*ids, *self.modules.values()]:
            if ident != ident.strip():
                raise InvalidScenario(f"id {ident!r} has surrounding whitespace")

    @property
    def seed(self) -> int:
        return self.cohort.seed


# every key a scenario file may hold: "items" lists the items, or else n_items are drawn from the ranges
SCENARIO_ITEM_FIELDS = [
    ("item_id", ID, None), ("a", FLOAT, None), ("b", FLOAT, None), ("module_id", optional(ID), None)
]
BEHAVIOR_FIELDS = number_fields(BehaviorSpec)
SCENARIO_FIELDS = [
    ("n_students", INT, None),
    ("ability_mean", FLOAT, 0.0),
    ("ability_sd", FLOAT, 1.0),
    ("seed", INT, 0),
    ("items", optional(list_of(record(SCENARIO_ITEM_FIELDS))), None),
    ("n_items", optional(INT), None),
    ("a_range", list_of(FLOAT, 2), [0.5, 2.0]),
    ("b_range", list_of(FLOAT, 2), [-2.0, 2.0]),
    ("module_ids", list_of(ID), []),
    ("behavior", record(BEHAVIOR_FIELDS, BehaviorSpec), {}),
    ("missing_rate", FLOAT, 0.0),
]


def _scenario_items(fields: dict) -> tuple[list[ItemParameters], dict[str, str]]:
    module_ids = fields["module_ids"] or ["sim"]
    if (rows := fields["items"]) is not None:
        items = [ItemParameters(row["item_id"], row["a"], row["b"]) for row in rows]
        return items, {row["item_id"]: module_ids[0] if row["module_id"] is None else row["module_id"] for row in rows}
    n_items = fields["n_items"]
    if n_items is None or n_items <= 0:
        raise InvalidScenario("scenario needs either an items list or a positive n_items")
    (a_lo, a_hi), (b_lo, b_hi) = fields["a_range"], fields["b_range"]
    if not (a_lo <= a_hi and b_lo <= b_hi):
        raise InvalidScenario("empty a_range or b_range")
    rng = np.random.default_rng((fields["seed"], _TAG_ITEMS))
    a = a_lo + (a_hi - a_lo) * _open_uniform(rng, n_items)
    b = b_lo + (b_hi - b_lo) * _open_uniform(rng, n_items)
    width = max(2, len(str(n_items - 1)))
    items = [ItemParameters(f"i{j:0{width}d}", float(a[j]), float(b[j])) for j in range(n_items)]
    modules = {it.item_id: module_ids[j % len(module_ids)] for j, it in enumerate(items)}
    return items, modules


def load_scenario(source: str | Path | dict, seed: int | None = None) -> Scenario:
    """Build a Scenario from a JSON file path or an already-parsed dict; a given ``seed`` replaces the scenario's."""
    try:
        data = json.loads(Path(source).read_text()) if isinstance(source, (str, Path)) else source
        fields = load_fields(SCENARIO_FIELDS, data)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep to decode
        raise InvalidScenario(f"bad scenario: {exc}") from None
    if seed is not None:
        fields["seed"] = seed
    cohort = CohortSpec(fields["n_students"], fields["ability_mean"], fields["ability_sd"], fields["seed"])
    items, modules = _scenario_items(fields)
    return Scenario(cohort, items, modules, fields["behavior"], fields["missing_rate"])


@dataclass
class SimulationOutput:
    scenario: Scenario
    cohort: list[tuple[str, float]]
    log: SimulatedLog
    matrix: ResponseMatrix


def run_scenario(scenario: Scenario) -> SimulationOutput:
    """Sample the cohort, then emit both the event log and the direct matrix."""
    cohort = sample_cohort(scenario.cohort)
    log = generate_event_log(cohort, scenario.items, scenario.behavior, scenario.seed, scenario.modules)
    matrix = generate_responses(cohort, scenario.items, scenario.seed, missing_rate=scenario.missing_rate)
    return SimulationOutput(scenario=scenario, cohort=cohort, log=log, matrix=matrix)
