"""Two-parameter logistic latent-trait engine.

Model: the probability that a student of ability theta scores 1 on an item
with discrimination ``a`` and difficulty ``b`` is

    P(theta) = 1 / (1 + exp(-a * (theta - b)))

Item parameters are fitted by marginal maximum likelihood: the unobserved
ability is integrated out against a standard-normal prior discretized on a
fixed grid of quadrature nodes (default 41 nodes on [-5, 5], prior-weighted
and renormalized). The EM loop alternates posterior node weights per student
(E-step) with one weighted logistic regression per item on the node abilities
(M-step). The M-step solves every item's damped-Newton 2x2 system at once,
with per-item stopping and step halving (Bock & Aitkin 1981). Standard errors
come from the observed information, whose 2x2 block for every item is a sum
of column reductions of (S, K) x (K, I) products (Louis 1982; derivation in
:func:`_item_observed_information`). No step loops over items in Python.
Negative discrimination is permitted throughout: defective items genuinely
fit with a < 0 and the estimator must be able to say so.

Internally items are carried in slope-intercept form z = alpha + beta*theta
(beta = a, alpha = -a*b), which stays numerically exact when beta is tiny and
the equivalent b would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .response import MISSING, ResponseMatrix
from .tables import BOOL, FLOAT, TEXT, Table, number_fields, optional, write_csv, write_rows

SE_BLOCK_ROWS = 1024  # students per block of the standard errors' S x I score matrices


class EmptyItemSet(ValueError):
    pass


class EmptyGrid(ValueError):
    pass


class DimensionMismatch(ValueError):
    """Parameters do not cover the matrix's non-degenerate items."""


class DegenerateMatrix(ValueError):
    """Too few calibratable items or active students to fit."""


@dataclass(frozen=True)
class ItemParameters:
    """Fitted 2PL parameters for one item.

    ``degenerate`` marks items whose responses carry no usable slope
    information (all-identical observed scores, or estimates driven into the
    configured bounds); their ``a``/``b`` are clamped placeholders and their
    standard errors are absent.
    """

    item_id: str
    a: float
    b: float
    se_a: float | None = None
    se_b: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class AbilityEstimate:
    """Posterior mean and standard deviation of one student's ability."""

    student_id: str
    theta: float
    se_theta: float


@dataclass
class FitDiagnostics:
    group_id: str
    n_iterations: int
    log_likelihood: float
    converged: bool
    trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Quadrature:
    """Fixed ability grid with renormalized standard-normal prior weights."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def normal(cls, n_nodes: int = 41, lo: float = -5.0, hi: float = 5.0) -> "Quadrature":
        if n_nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")
        if not lo < hi:
            raise ValueError(f"invalid node range [{lo}, {hi}]")
        nodes = np.linspace(lo, hi, n_nodes)
        w = np.exp(-0.5 * nodes**2)
        return cls(nodes=nodes, weights=w / w.sum())


@dataclass
class FitConfig:
    """Knobs for the marginal-likelihood fit; defaults match the contract."""

    n_nodes: int = 41
    node_lo: float = -5.0
    node_hi: float = 5.0
    tol: float = 1e-6
    max_iter: int = 500
    newton_max_steps: int = 50
    a_bound: float = 10.0
    b_bound: float = 50.0
    min_students: int = 10
    min_items: int = 2

    def __post_init__(self):
        self.quadrature()  # n_nodes >= 2 and node_lo < node_hi
        for name in ("tol", "max_iter", "newton_max_steps", "a_bound", "b_bound", "min_students", "min_items"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def quadrature(self) -> Quadrature:
        return Quadrature.normal(self.n_nodes, self.node_lo, self.node_hi)


# the "fit" object of a config file: each FitConfig field, an integer or a finite number
FIT_FIELDS = number_fields(FitConfig)


class FitResult(NamedTuple):
    items: list[ItemParameters]
    abilities: list[AbilityEstimate]
    diagnostics: FitDiagnostics


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def icc_prob(a: float, b: float, theta):
    """Probability of a correct response; stable for |a*(theta-b)| up to 700.

    ``theta`` may be a scalar or an array; the return type follows it.
    """
    z = np.asarray(a, dtype=float) * (np.asarray(theta, dtype=float) - np.asarray(b, dtype=float))
    if z.ndim == 0:
        return float(_sigmoid(z.reshape(1))[0])
    return _sigmoid(z)


def item_information(a: float, b: float, theta):
    """Fisher information a^2 * P * (1 - P); peaks at theta = b with a^2/4."""
    p = icc_prob(a, b, theta)
    return (float(a) ** 2) * p * (1.0 - p)


def test_information(items: Sequence[ItemParameters], theta):
    """Sum of the items' information at theta."""
    if not items:
        raise EmptyItemSet("no items")
    total = item_information(items[0].a, items[0].b, theta)
    for it in items[1:]:
        total = total + item_information(it.a, it.b, theta)
    return total


def difficult_at_average(item: ItemParameters) -> bool:
    """True when an average-ability student is below even odds of scoring 1."""
    return icc_prob(item.a, item.b, 0.0) < 0.5


def default_theta_grid() -> np.ndarray:
    """161 abilities from -4 to 4 inclusive, step 0.05."""
    return np.linspace(-4.0, 4.0, 161)


@dataclass
class CurveTable:
    """Per-item response and information curves on an ability grid."""

    item_ids: list[str]
    thetas: np.ndarray
    prob: np.ndarray  # (n_thetas, n_items)
    info: np.ndarray  # (n_thetas, n_items)
    tif: np.ndarray  # (n_thetas,)

    def to_csv(self) -> str:
        header = ["theta", *(f"p_{i}" for i in self.item_ids), *(f"info_{i}" for i in self.item_ids), "tif"]
        rows = np.column_stack([self.thetas, self.prob, self.info, self.tif])
        return write_rows(header, ([repr(v) for v in row.tolist()] for row in rows))


def sample_curves(params: Sequence[ItemParameters], theta_grid: np.ndarray | None = None) -> CurveTable:
    """Evaluate every item's ICC and IIC on the grid, plus their sum (TIF)."""
    if theta_grid is None:
        theta_grid = default_theta_grid()
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("theta grid is empty")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise EmptyGrid("theta grid must be finite and strictly ascending")
    if not params:
        raise EmptyItemSet("no items")
    prob = np.column_stack([icc_prob(p.a, p.b, grid) for p in params])
    info = np.column_stack([item_information(p.a, p.b, grid) for p in params])
    return CurveTable(
        item_ids=[p.item_id for p in params],
        thetas=grid,
        prob=prob,
        info=info,
        tif=info.sum(axis=1),
    )


# ---------------------------------------------------------------------------
# Marginal likelihood machinery (slope-intercept form z = alpha + beta*theta)
# ---------------------------------------------------------------------------


def _logsumexp(arr: np.ndarray, axis: int = -1) -> np.ndarray:
    mx = np.max(arr, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    out = mx + np.log(np.sum(np.exp(arr - mx), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _align(matrix: ResponseMatrix, params: Sequence[ItemParameters]):
    """Map parameters onto matrix columns, in matrix column order.

    Degenerate-flagged parameters carry no calibrated information and are
    skipped, as are matrix columns that are themselves degenerate and have no
    parameters. A non-degenerate column without parameters is an error.
    """
    by_id = {p.item_id: p for p in params}
    degen_cols = None
    cols: list[int] = []
    alpha: list[float] = []
    beta: list[float] = []
    for j, item in enumerate(matrix.item_ids):
        p = by_id.get(item)
        if p is None or p.degenerate:
            if degen_cols is None:
                degen_cols = set(matrix.degenerate_items())
            if p is not None or item in degen_cols:
                continue
            raise DimensionMismatch(f"no parameters for item {item!r}")
        cols.append(j)
        beta.append(p.a)
        alpha.append(-p.a * p.b)
    return np.array(cols, dtype=int), np.array(alpha, dtype=float), np.array(beta, dtype=float)


def _node_logits(alpha: np.ndarray, beta: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    return alpha[None, :] + beta[None, :] * nodes[:, None]  # (K, I)


def _masks(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 indicators of the correct cells and of the observed cells."""
    return (cells == 1).astype(np.float64), (cells != MISSING).astype(np.float64)


def _response_loglik_by_node(
    ones: np.ndarray, obs: np.ndarray, alpha: np.ndarray, beta: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """lam[s, k] = log-likelihood of student s's observed scores at node k.

    ``ones`` and ``obs`` are the masks of :func:`_masks`. Since
    log P = log Q + z, lam = obs·log Qᵀ + ones·zᵀ needs no mask of the wrong
    cells.
    """
    z = _node_logits(alpha, beta, nodes)
    log_q = -np.logaddexp(0.0, z)
    return obs @ log_q.T + ones @ z.T


def _posteriors(lam: np.ndarray, weights: np.ndarray):
    """Per-student log marginal and posterior node weights.

    Weights below the smallest normal double (~2.2e-308) are set to 0: that
    moves no fitted value, and subnormal operands slow the (S, K) products
    severalfold.
    """
    shifted = lam + np.log(weights)[None, :]
    log_marg = _logsumexp(shifted, axis=1)
    post = np.exp(shifted - log_marg[:, None])
    post[post < np.finfo(np.float64).tiny] = 0.0
    return log_marg, post


def marginal_log_likelihood(
    matrix: ResponseMatrix,
    params: Sequence[ItemParameters],
    quadrature: Quadrature | None = None,
) -> float:
    """Log-likelihood of the matrix with ability integrated out per student.

    Missing cells contribute nothing; a student with no observed cells
    contributes log(1) = 0, so an empty matrix scores exactly 0.
    """
    quad = quadrature or Quadrature.normal()
    cols, alpha, beta = _align(matrix, params)
    if matrix.n_students == 0 or cols.size == 0:
        return 0.0
    lam = _response_loglik_by_node(*_masks(matrix.cells[:, cols]), alpha, beta, quad.nodes)
    log_marg, _ = _posteriors(lam, quad.weights)
    return float(log_marg.sum())


def marginal_loglik_gradient(
    matrix: ResponseMatrix,
    params: Sequence[ItemParameters],
    quadrature: Quadrature | None = None,
) -> np.ndarray:
    """Gradient of the marginal log-likelihood w.r.t. each item's (a, b).

    Returns an array of shape (len(params), 2) aligned with ``params``;
    entries for items absent from the matrix (or degenerate) are zero.
    """
    quad = quadrature or Quadrature.normal()
    cols, alpha, beta = _align(matrix, params)
    grad = np.zeros((len(params), 2))
    if matrix.n_students == 0 or cols.size == 0:
        return grad
    ones, obs = _masks(matrix.cells[:, cols])
    lam = _response_loglik_by_node(ones, obs, alpha, beta, quad.nodes)
    _, post = _posteriors(lam, quad.weights)
    p = _sigmoid(_node_logits(alpha, beta, quad.nodes))  # (K, I)
    r_ki = post.T @ ones
    n_ki = post.T @ obs
    resid = r_ki - n_ki * p  # (K, I)
    g_alpha = resid.sum(axis=0)
    g_beta = quad.nodes @ resid
    # chain rule from (alpha, beta) = (-a*b, a) back to (a, b)
    a_vec = beta
    b_vec = np.where(beta != 0.0, -alpha / np.where(beta != 0.0, beta, 1.0), 0.0)
    d_a = g_beta - b_vec * g_alpha
    d_b = -a_vec * g_alpha
    pos_of = {p_.item_id: idx for idx, p_ in enumerate(params)}
    for out_col, j in enumerate(cols):
        idx = pos_of[matrix.item_ids[j]]
        grad[idx, 0] = d_a[out_col]
        grad[idx, 1] = d_b[out_col]
    return grad


def _expected_loglik(alpha: np.ndarray, beta: np.ndarray, nodes: np.ndarray, r: np.ndarray, n: np.ndarray):
    """Each item's expected complete-data log-likelihood; ``r``, ``n`` are (I, K)."""
    z = alpha[:, None] + beta[:, None] * nodes
    return (r * z).sum(axis=1) - (n * np.logaddexp(0.0, z)).sum(axis=1)


def _maximize_items(
    nodes: np.ndarray,
    r: np.ndarray,
    n: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton ascent of every item's expected log-likelihood at once.

    ``r`` and ``n`` hold each item's expected correct and observed counts
    per node, one row per item. All still-active items take their 2x2
    Newton step together, but each item stops on its own: gradient below
    1e-10, a non-finite or non-positive curvature, no accepted step, a step
    below 1e-12, or ``max_steps``. Each item's step is halved (at most 30
    times) until it does not lower that item's objective, so the EM
    monotonicity guarantee survives the inner solver. Every reduction runs
    along a row, as a one-item solve would run it, so each item gets the
    bits it would get alone. Returns new ``(alpha, beta)`` arrays.
    """
    alpha = alpha.copy()
    beta = beta.copy()
    value = _expected_loglik(alpha, beta, nodes, r, n)
    live = np.arange(alpha.size)
    for _ in range(max_steps):
        if live.size == 0:
            break
        r_l, n_l = r[live], n[live]
        p = _sigmoid(alpha[live, None] + beta[live, None] * nodes)
        resid = r_l - n_l * p
        g0 = resid.sum(axis=1)
        g1 = (resid * nodes).sum(axis=1)
        w = n_l * p * (1.0 - p)
        h00 = w.sum(axis=1)
        h01 = (w * nodes).sum(axis=1)
        h11 = (w * (nodes * nodes)).sum(axis=1)
        det = h00 * h11 - h01 * h01
        go = ~(np.maximum(np.abs(g0), np.abs(g1)) < 1e-10) & np.isfinite(det) & (det > 0.0) & (h00 > 0.0)
        live, g0, g1, h00, h01, h11, det = live[go], g0[go], g1[go], h00[go], h01[go], h11[go], det[go]
        d_alpha = (h11 * g0 - h01 * g1) / det
        d_beta = (-h01 * g0 + h00 * g1) / det
        step = np.ones(live.size)
        accepted = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)  # positions in ``live`` still halving
        for _ in range(30):
            idx = live[pending]
            cand_a = alpha[idx] + step[pending] * d_alpha[pending]
            cand_b = beta[idx] + step[pending] * d_beta[pending]
            cand_v = _expected_loglik(cand_a, cand_b, nodes, r[idx], n[idx])
            ok = cand_v >= value[idx]
            alpha[idx[ok]] = cand_a[ok]
            beta[idx[ok]] = cand_b[ok]
            value[idx[ok]] = cand_v[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            step[pending] *= 0.5
        live = live[accepted & (step * np.maximum(np.abs(d_alpha), np.abs(d_beta)) >= 1e-12)]
    return alpha, beta


def _item_observed_information(
    ones: np.ndarray,
    obs: np.ndarray,
    post: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Observed information (negative marginal Hessian) per item, in (a, b).

    ``post`` holds the students' posterior node weights G at
    ``(alpha, beta)``; P is the (K, I) matrix of response probabilities and
    X, O are the ``ones``/``obs`` masks. Student s's scores for item j are
    dα = X − O∘(G·P) and dβ = X∘m₁ − O∘(G·(θ∘P)) with m₁ = G·θ. Since
    x² = x, each node's curvature g·((x − p)² − p(1 − p)) equals
    g·(1 − 2p)(x − p), so over students it sums to t_r = θʳ·[(1 − 2P)∘(R −
    N∘P)] with R = Gᵀ·X and N = Gᵀ·O, and the (α, β) Hessian is
    h = t − Σ_s d·dᵀ (Louis 1982). The S x I score matrices are built
    ``SE_BLOCK_ROWS`` students at a time. Returns ``(info, ok)``: ``info``
    is (I, 2, 2) and ``ok`` is False where the block is not positive
    definite (parameters effectively unidentified).
    """
    p = _sigmoid(_node_logits(alpha, beta, nodes))  # (K, I)
    theta_p = nodes[:, None] * p
    curv = (1.0 - 2.0 * p) * (post.T @ ones - (post.T @ obs) * p)
    t0 = curv.sum(axis=0)
    t1 = nodes @ curv
    t2 = (nodes * nodes) @ curv
    s_aa = np.zeros(p.shape[1])
    s_ab = np.zeros(p.shape[1])
    s_bb = np.zeros(p.shape[1])
    g_alpha = np.zeros(p.shape[1])
    for lo in range(0, post.shape[0], SE_BLOCK_ROWS):
        g = post[lo : lo + SE_BLOCK_ROWS]
        x = ones[lo : lo + SE_BLOCK_ROWS]
        o = obs[lo : lo + SE_BLOCK_ROWS]
        d_alpha = x - o * (g @ p)
        d_beta = x * (g @ nodes)[:, None] - o * (g @ theta_p)
        s_aa += np.einsum("si,si->i", d_alpha, d_alpha)
        s_ab += np.einsum("si,si->i", d_alpha, d_beta)
        s_bb += np.einsum("si,si->i", d_beta, d_beta)
        g_alpha += d_alpha.sum(axis=0)
    h_aa = t0 - s_aa
    h_ab = t1 - s_ab
    h_bb = t2 - s_bb
    # (alpha, beta) = (-a*b, a): Jacobian [[-b, -a], [1, 0]], plus the score
    # term that the chain rule's second derivative of alpha = -a*b adds
    a = beta
    b = np.where(beta != 0.0, -alpha / np.where(beta != 0.0, beta, 1.0), 0.0)
    info_aa = -(b * b * h_aa - 2.0 * b * h_ab + h_bb)
    info_ab = -(a * b * h_aa - a * h_ab) + g_alpha
    info_bb = -(a * a * h_aa)
    info = np.stack([np.stack([info_aa, info_ab], axis=-1), np.stack([info_ab, info_bb], axis=-1)], axis=-2)
    ok = (info_aa > 0.0) & (info_aa * info_bb - info_ab * info_ab > 0.0)
    return info, ok


def fit_2pl(matrix: ResponseMatrix, config: FitConfig | None = None) -> FitResult:
    """Fit item parameters by EM on the marginal likelihood.

    Degenerate columns (all-identical observed responses) are excluded from
    calibration and returned with clamped placeholder parameters and the
    ``degenerate`` flag set. Non-convergence within ``max_iter`` is not an
    error: the best parameters so far come back with ``converged=False``.
    """
    cfg = config or FitConfig()
    degen_ids = set(matrix.degenerate_items())
    work = matrix.drop_items(degen_ids) if degen_ids else matrix
    active_students = int((work.cells != MISSING).any(axis=1).sum())
    if work.n_items < cfg.min_items:
        raise DegenerateMatrix(
            f"group {matrix.group_id!r}: {work.n_items} calibratable items "
            f"(need {cfg.min_items}); degenerate: {sorted(degen_ids)}"
        )
    if active_students < cfg.min_students:
        raise DegenerateMatrix(
            f"group {matrix.group_id!r}: {active_students} students with responses "
            f"(need {cfg.min_students})"
        )

    quad = cfg.quadrature()
    nodes = quad.nodes
    ones, obs = _masks(work.cells)

    p_obs = ones.sum(axis=0) / obs.sum(axis=0)
    b0 = np.clip(-np.log(p_obs / (1.0 - p_obs)), -3.0, 3.0)
    beta = np.ones(work.n_items)
    alpha = -beta * b0

    lam = _response_loglik_by_node(ones, obs, alpha, beta, nodes)
    log_marg, post = _posteriors(lam, quad.weights)
    ll = float(log_marg.sum())
    trace = [ll]
    converged = False
    for _ in range(cfg.max_iter):
        alpha, beta = _maximize_items(nodes, ones.T @ post, obs.T @ post, alpha, beta, cfg.newton_max_steps)
        lam = _response_loglik_by_node(ones, obs, alpha, beta, nodes)
        log_marg, post = _posteriors(lam, quad.weights)
        new_ll = float(log_marg.sum())
        trace.append(new_ll)
        rel_change = abs(new_ll - ll) / max(1.0, abs(ll))
        ll = new_ll
        if rel_change < cfg.tol:
            converged = True
            break

    # the loop leaves post computed at the final (alpha, beta)
    info, has_info = _item_observed_information(ones, obs, post, alpha, beta, nodes)
    del ones, obs, lam, post  # estimate_abilities below builds its own
    vanishing = np.abs(beta) < 1e-12
    b = np.where(
        vanishing,
        np.where(alpha != 0.0, np.copysign(cfg.b_bound, -alpha), 0.0),
        -alpha / np.where(vanishing, 1.0, beta),
    )
    flagged = vanishing | (np.abs(beta) > cfg.a_bound) | (np.abs(b) > cfg.b_bound)
    a = np.clip(beta, -cfg.a_bound, cfg.a_bound)
    b = np.clip(b, -cfg.b_bound, cfg.b_bound)
    has_se = has_info & ~flagged
    det = np.where(has_se, info[:, 0, 0] * info[:, 1, 1] - info[:, 0, 1] ** 2, 1.0)
    se_a = np.sqrt(np.where(has_se, info[:, 1, 1], 1.0) / det)
    se_b = np.sqrt(np.where(has_se, info[:, 0, 0], 1.0) / det)
    fitted = {
        item_id: ItemParameters(item_id, a_j, b_j, se_a=sa if ok else None, se_b=sb if ok else None, degenerate=d)
        for item_id, a_j, b_j, sa, sb, ok, d in zip(
            work.item_ids, a.tolist(), b.tolist(), se_a.tolist(), se_b.tolist(), has_se.tolist(), flagged.tolist()
        )
    }

    # a degenerate column's observed scores all agree: everyone passed is
    # arbitrarily easy, everyone failed arbitrarily hard, no score at all is b = 0
    placeholder_b = {1: -cfg.b_bound, 0: cfg.b_bound, MISSING: 0.0}
    fitted.update(
        (item_id, ItemParameters(item_id, 1.0, placeholder_b[top], degenerate=True))
        for item_id, top in zip(matrix.item_ids, matrix.cells.max(axis=0, initial=MISSING).tolist())
        if item_id in degen_ids
    )

    items = [fitted[item_id] for item_id in matrix.item_ids]
    calibrated = [fitted[i] for i in work.item_ids if not fitted[i].degenerate]
    # items that clamped during packaging carry no usable calibration either;
    # their columns must not feed the ability posterior
    clamped = [i for i in work.item_ids if fitted[i].degenerate]
    ability_matrix = work.drop_items(clamped) if clamped else work
    abilities = estimate_abilities(ability_matrix, calibrated, quad)
    diagnostics = FitDiagnostics(
        group_id=matrix.group_id,
        n_iterations=len(trace) - 1,
        log_likelihood=trace[-1],
        converged=converged,
        trace=trace,
    )
    return FitResult(items=items, abilities=abilities, diagnostics=diagnostics)


PARAMS = Table(
    "items",
    ItemParameters,
    [
        ("item_id", TEXT),
        ("a", FLOAT),
        ("b", FLOAT),
        ("se_a", optional(FLOAT)),
        ("se_b", optional(FLOAT)),
        ("degenerate", BOOL),
    ],
)
ABILITIES = Table("abilities", AbilityEstimate, [("student_id", TEXT), ("theta", FLOAT), ("se_theta", FLOAT)])


def params_to_csv(items: Sequence[ItemParameters]) -> str:
    """Full-precision CSV so parameters survive a write/read round trip."""
    return write_csv(PARAMS, items)


def estimate_abilities(
    matrix: ResponseMatrix,
    params: Sequence[ItemParameters],
    quadrature: Quadrature | None = None,
) -> list[AbilityEstimate]:
    """Posterior-mean ability per student under the quadrature prior.

    Students with no observed responses on any calibrated item fall back to
    the prior exactly: theta 0, standard deviation 1.
    """
    quad = quadrature or Quadrature.normal()
    cols, alpha, beta = _align(matrix, params)
    estimates: list[AbilityEstimate] = []
    if cols.size == 0:
        return [AbilityEstimate(sid, 0.0, 1.0) for sid in matrix.student_ids]
    cells = matrix.cells[:, cols]
    lam = _response_loglik_by_node(*_masks(cells), alpha, beta, quad.nodes)
    _, post = _posteriors(lam, quad.weights)
    theta = post @ quad.nodes
    second = post @ (quad.nodes * quad.nodes)
    var = np.clip(second - theta * theta, 1e-16, None)
    se = np.sqrt(var)
    any_obs = (cells != MISSING).any(axis=1)
    for i, sid in enumerate(matrix.student_ids):
        if any_obs[i]:
            estimates.append(AbilityEstimate(sid, float(theta[i]), float(se[i])))
        else:
            estimates.append(AbilityEstimate(sid, 0.0, 1.0))
    return estimates
