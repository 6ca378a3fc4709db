"""Two-parameter logistic latent-trait engine.

Model: the probability that a student of ability theta scores 1 on an item
with discrimination ``a`` and difficulty ``b`` is

    P(theta) = 1 / (1 + exp(-a * (theta - b)))

Item parameters are fitted by marginal maximum likelihood: the unobserved
ability is integrated out against a standard-normal prior discretized on a
fixed grid of quadrature nodes (default 41 nodes on [-5, 5], prior-weighted
and renormalized). The EM loop alternates posterior node weights per student
(E-step) with one weighted logistic regression per item on the node abilities
(M-step, damped Newton). Negative discrimination is permitted throughout:
defective items genuinely fit with a < 0 and the estimator must be able to
say so.

Internally items are carried in slope-intercept form z = alpha + beta*theta
(beta = a, alpha = -a*b), which stays numerically exact when beta is tiny and
the equivalent b would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .response import MISSING, ResponseMatrix
from .tables import BOOL, FLOAT, TEXT, Table, optional, write_csv, write_rows


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
    seed: int = 0

    def quadrature(self) -> Quadrature:
        return Quadrature.normal(self.n_nodes, self.node_lo, self.node_hi)

    @classmethod
    def from_dict(cls, data: dict) -> "FitConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fit config keys: {sorted(unknown)}")
        return cls(**data)


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


def _response_loglik_by_node(cells: np.ndarray, alpha: np.ndarray, beta: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """lam[s, k] = log-likelihood of student s's observed scores at node k."""
    z = _node_logits(alpha, beta, nodes)
    log_p = -np.logaddexp(0.0, -z)
    log_q = -np.logaddexp(0.0, z)
    ones = (cells == 1).astype(np.float64)
    zeros = (cells == 0).astype(np.float64)
    return ones @ log_p.T + zeros @ log_q.T


def _posteriors(lam: np.ndarray, weights: np.ndarray):
    """Per-student log marginal and posterior node weights."""
    shifted = lam + np.log(weights)[None, :]
    log_marg = _logsumexp(shifted, axis=1)
    post = np.exp(shifted - log_marg[:, None])
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
    lam = _response_loglik_by_node(matrix.cells[:, cols], alpha, beta, quad.nodes)
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
    cells = matrix.cells[:, cols]
    lam = _response_loglik_by_node(cells, alpha, beta, quad.nodes)
    _, post = _posteriors(lam, quad.weights)
    p = _sigmoid(_node_logits(alpha, beta, quad.nodes))  # (K, I)
    ones = (cells == 1).astype(np.float64)
    obs = (cells != MISSING).astype(np.float64)
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


def _item_expected_loglik(alpha: float, beta: float, nodes: np.ndarray, r_k: np.ndarray, n_k: np.ndarray) -> float:
    z = alpha + beta * nodes
    return float(r_k @ z - n_k @ np.logaddexp(0.0, z))


def _maximize_item(
    nodes: np.ndarray,
    r_k: np.ndarray,
    n_k: np.ndarray,
    alpha: float,
    beta: float,
    max_steps: int,
) -> tuple[float, float]:
    """Damped Newton ascent of the expected per-item log-likelihood.

    Candidate steps are halved until they do not decrease the objective, so
    the EM monotonicity guarantee survives the inner solver.
    """
    value = _item_expected_loglik(alpha, beta, nodes, r_k, n_k)
    for _ in range(max_steps):
        z = alpha + beta * nodes
        p = _sigmoid(z)
        resid = r_k - n_k * p
        g0 = resid.sum()
        g1 = resid @ nodes
        if max(abs(g0), abs(g1)) < 1e-10:
            break
        w = n_k * p * (1.0 - p)
        h00 = w.sum()
        h01 = w @ nodes
        h11 = w @ (nodes * nodes)
        det = h00 * h11 - h01 * h01
        if not np.isfinite(det) or det <= 0.0 or h00 <= 0.0:
            break
        d_alpha = (h11 * g0 - h01 * g1) / det
        d_beta = (-h01 * g0 + h00 * g1) / det
        step = 1.0
        accepted = False
        for _ in range(30):
            cand_a = alpha + step * d_alpha
            cand_b = beta + step * d_beta
            cand_v = _item_expected_loglik(cand_a, cand_b, nodes, r_k, n_k)
            if cand_v >= value:
                alpha, beta, value = cand_a, cand_b, cand_v
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if step * max(abs(d_alpha), abs(d_beta)) < 1e-12:
            break
    return alpha, beta


def _item_observed_information(
    cells: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    quad: Quadrature,
) -> list[np.ndarray | None]:
    """Observed information (negative marginal Hessian) per item, in (a, b).

    Returns one 2x2 block per column of ``cells``; None where the block is
    not positive definite (parameters effectively unidentified).
    """
    nodes = quad.nodes
    lam = _response_loglik_by_node(cells, alpha, beta, nodes)
    _, post = _posteriors(lam, quad.weights)
    p = _sigmoid(_node_logits(alpha, beta, nodes))  # (K, I)
    blocks: list[np.ndarray | None] = []
    for j in range(cells.shape[1]):
        oj = cells[:, j] != MISSING
        if not oj.any():
            blocks.append(None)
            continue
        x = (cells[oj, j] == 1).astype(np.float64)
        g = post[oj]  # (So, K)
        dev = x[:, None] - p[None, :, j]  # (So, K)
        c = g * dev  # score contributions per node
        d_alpha_s = c.sum(axis=1)
        d_beta_s = c @ nodes
        pq = (p[:, j] * (1.0 - p[:, j]))[None, :]
        curv = g * (dev * dev - pq)
        t0 = float(curv.sum())
        t1 = float((curv @ nodes).sum())
        t2 = float((curv @ (nodes * nodes)).sum())
        h_aa = t0 - float(d_alpha_s @ d_alpha_s)
        h_ab = t1 - float(d_alpha_s @ d_beta_s)
        h_bb = t2 - float(d_beta_s @ d_beta_s)
        h_int = np.array([[h_aa, h_ab], [h_ab, h_bb]])  # in (alpha, beta)
        a = beta[j]
        b = -alpha[j] / beta[j] if beta[j] != 0.0 else 0.0
        jac = np.array([[-b, -a], [1.0, 0.0]])  # d(alpha,beta)/d(a,b)
        g_alpha_total = float(d_alpha_s.sum())
        h_ab_frame = jac.T @ h_int @ jac + g_alpha_total * np.array([[0.0, -1.0], [-1.0, 0.0]])
        info = -h_ab_frame
        if info[0, 0] <= 0.0 or np.linalg.det(info) <= 0.0:
            blocks.append(None)
        else:
            blocks.append(info)
    return blocks


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


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
    cells = work.cells
    ones = (cells == 1).astype(np.float64)
    obs = (cells != MISSING).astype(np.float64)

    p_obs = ones.sum(axis=0) / obs.sum(axis=0)
    b0 = np.clip([-_logit(p) for p in p_obs], -3.0, 3.0)
    beta = np.ones(work.n_items)
    alpha = -beta * b0

    lam = _response_loglik_by_node(cells, alpha, beta, nodes)
    log_marg, post = _posteriors(lam, quad.weights)
    ll = float(log_marg.sum())
    trace = [ll]
    converged = False
    for _ in range(cfg.max_iter):
        r_ki = post.T @ ones
        n_ki = post.T @ obs
        for j in range(work.n_items):
            alpha[j], beta[j] = _maximize_item(
                nodes, r_ki[:, j], n_ki[:, j], alpha[j], beta[j], cfg.newton_max_steps
            )
        lam = _response_loglik_by_node(cells, alpha, beta, nodes)
        log_marg, post = _posteriors(lam, quad.weights)
        new_ll = float(log_marg.sum())
        trace.append(new_ll)
        rel_change = abs(new_ll - ll) / max(1.0, abs(ll))
        ll = new_ll
        if rel_change < cfg.tol:
            converged = True
            break

    info_blocks = _item_observed_information(cells, alpha, beta, quad)
    fitted: dict[str, ItemParameters] = {}
    for j, item_id in enumerate(work.item_ids):
        a = float(beta[j])
        if abs(beta[j]) < 1e-12:
            b = math.copysign(cfg.b_bound, -alpha[j]) if alpha[j] != 0.0 else 0.0
            fitted[item_id] = ItemParameters(item_id, a, b, degenerate=True)
            continue
        b = float(-alpha[j] / beta[j])
        clamped = False
        if abs(a) > cfg.a_bound:
            a = math.copysign(cfg.a_bound, a)
            clamped = True
        if abs(b) > cfg.b_bound:
            b = math.copysign(cfg.b_bound, b)
            clamped = True
        se_a = se_b = None
        if not clamped and info_blocks[j] is not None:
            cov = np.linalg.inv(info_blocks[j])
            if cov[0, 0] > 0.0 and cov[1, 1] > 0.0:
                se_a = float(math.sqrt(cov[0, 0]))
                se_b = float(math.sqrt(cov[1, 1]))
        fitted[item_id] = ItemParameters(item_id, a, b, se_a=se_a, se_b=se_b, degenerate=clamped)

    for item_id in degen_ids:
        col = matrix.item_ids.index(item_id)
        col_obs = matrix.cells[:, col][matrix.cells[:, col] != MISSING]
        if col_obs.size == 0:
            b = 0.0
        elif col_obs[0] == 1:
            b = -cfg.b_bound  # everyone passed: arbitrarily easy
        else:
            b = cfg.b_bound
        fitted[item_id] = ItemParameters(item_id, 1.0, b, degenerate=True)

    items = [fitted[item_id] for item_id in matrix.item_ids]
    calibrated = [fitted[i] for i in work.item_ids if not fitted[i].degenerate]
    # items that clamped during packaging carry no usable calibration either;
    # their columns must not feed the ability posterior
    flagged = [i for i in work.item_ids if fitted[i].degenerate]
    ability_matrix = work.drop_items(flagged) if flagged else work
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
    lam = _response_loglik_by_node(cells, alpha, beta, quad.nodes)
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
