"""Metamorphic relations of the 2PL fit: transform the input, predict the fit.

Each relation fits a small matrix drawn from the benchmark's fixed item bank
(``perfbench/gen.py``), transforms it, fits it again, and checks the second
fit against what the first predicts, with no reference output (Segura et al.,
"A Survey on Metamorphic Testing", IEEE TSE 42(9), 2016). Two fits that are
mirror images up to rounding can still differ by a step-halving tie in the
M-step, which moves a parameter by ~1e-7 on these shapes; the bounds below
sit above that and far below what a wrong fit moves.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itemlens.irt import fit_2pl
from itemlens.response import MISSING, ResponseMatrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (never imports itemlens)

PARAM_SE = 1e-5  # |fitted difference| in standard errors of the first fit
SE_REL = 1e-5
THETA_ABS = 1e-6

bank_matrices = st.tuples(st.integers(0, 2**16), st.sampled_from([(150, 5), (200, 6), (300, 8)]))
relation = settings(max_examples=8, deadline=None, derandomize=True)


def _bank_matrix(draw):
    seed, (n_students, n_items) = draw
    cells, _, _ = gen.response_matrix(seed, n_students, n_items)
    return ResponseMatrix("g", [f"s{i:03d}" for i in range(n_students)], [f"i{j}" for j in range(n_items)], cells)


def _assert_items(got, want, sign_b=1.0, se_scale=1.0):
    """Same flags; (a, sign_b * b) within PARAM_SE standard errors; SEs times ``se_scale`` equal."""
    assert [p.item_id for p in got] == [p.item_id for p in want]
    assert [p.degenerate for p in got] == [p.degenerate for p in want]
    for g, w in zip(got, want):
        assert (g.se_a is None) == (w.se_a is None)
        if w.se_a is None:
            continue
        assert abs(g.a - w.a) <= PARAM_SE * w.se_a
        assert abs(sign_b * g.b - w.b) <= PARAM_SE * w.se_b
        assert g.se_a * se_scale == pytest.approx(w.se_a, rel=SE_REL)
        assert g.se_b * se_scale == pytest.approx(w.se_b, rel=SE_REL)


def _assert_abilities(got, want, sign=1.0):
    for g, w in zip(got, want, strict=True):
        assert abs(sign * g.theta - w.theta) <= THETA_ABS
        assert abs(g.se_theta - w.se_theta) <= THETA_ABS


@relation
@given(bank_matrices)
def test_flipping_every_response_mirrors_b_and_theta(draw):
    # the N(0, 1) prior and the node grid are both symmetric about 0
    m = _bank_matrix(draw)
    flipped = np.where(m.cells == MISSING, MISSING, 1 - m.cells)
    base = fit_2pl(m)
    mirror = fit_2pl(ResponseMatrix("g", m.student_ids, m.item_ids, flipped))
    assert mirror.diagnostics.n_iterations == base.diagnostics.n_iterations
    assert mirror.diagnostics.log_likelihood == pytest.approx(base.diagnostics.log_likelihood, rel=1e-9)
    _assert_items(mirror.items, base.items, sign_b=-1.0)
    _assert_abilities(mirror.abilities, base.abilities, sign=-1.0)


@relation
@given(bank_matrices, st.randoms(use_true_random=False))
def test_permuting_item_columns_leaves_every_item_alone(draw, rnd):
    m = _bank_matrix(draw)
    order = list(range(m.n_items))
    rnd.shuffle(order)
    base = fit_2pl(m)
    moved = fit_2pl(ResponseMatrix("g", m.student_ids, [m.item_ids[j] for j in order], m.cells[:, order]))
    assert moved.diagnostics.n_iterations == base.diagnostics.n_iterations
    by_id = {p.item_id: p for p in moved.items}
    _assert_items([by_id[p.item_id] for p in base.items], base.items)
    _assert_abilities(moved.abilities, base.abilities)


@relation
@given(bank_matrices)
def test_duplicating_the_cohort_doubles_the_evidence(draw):
    m = _bank_matrix(draw)
    copies = [f"t{sid}" for sid in m.student_ids]
    base = fit_2pl(m)
    twice = fit_2pl(ResponseMatrix("g", m.student_ids + copies, m.item_ids, np.vstack([m.cells, m.cells])))
    assert twice.diagnostics.n_iterations == base.diagnostics.n_iterations
    assert twice.diagnostics.log_likelihood == pytest.approx(2.0 * base.diagnostics.log_likelihood, rel=1e-9)
    _assert_items(twice.items, base.items, se_scale=np.sqrt(2.0))
    originals, doubles = twice.abilities[: m.n_students], twice.abilities[m.n_students :]
    assert [e.student_id for e in doubles] == copies
    _assert_abilities(doubles, base.abilities)
    _assert_abilities(originals, base.abilities)
