"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles, deliberately
avoiding the library's code paths: pure-Python loops where feasible, and
self-contained numpy where grids make loops too slow.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def normal_nodes_weights(n: int, lo: float = -5.0, hi: float = 5.0):
    nodes = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    raw = [math.exp(-0.5 * t * t) for t in nodes]
    total = sum(raw)
    return nodes, [w / total for w in raw]


def brute_marginal_ll(rows, items, nodes, weights) -> float:
    """Triple-loop marginal log-likelihood.

    rows: per-student lists with entries 1, 0, or None (missing).
    items: list of (a, b) pairs aligned with row positions.
    """
    total = 0.0
    for row in rows:
        acc = 0.0
        for k, theta in enumerate(nodes):
            like = weights[k]
            for j, (a, b) in enumerate(items):
                x = row[j]
                if x is None:
                    continue
                p = sigmoid(a * (theta - b))
                like *= p if x == 1 else 1.0 - p
            acc += like
        total += math.log(acc)
    return total


def _log_sigmoid_np(z: np.ndarray) -> np.ndarray:
    # log(sigmoid(z)) = min(z, 0) - log1p(exp(-|z|))
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def marginal_ll_np(cells: np.ndarray, item_ab, nodes, weights) -> float:
    """Vectorized but self-contained marginal log-likelihood (cells: -1 missing)."""
    nodes = np.asarray(nodes, dtype=float)
    logw = np.log(np.asarray(weights, dtype=float))
    a = np.array([p[0] for p in item_ab])
    b = np.array([p[1] for p in item_ab])
    z = a[None, :] * (nodes[:, None] - b[None, :])  # (K, I)
    log_p = _log_sigmoid_np(z)
    log_q = log_p - z
    ones = (cells == 1).astype(float)
    zeros = (cells == 0).astype(float)
    lam = ones @ log_p.T + zeros @ log_q.T + logw[None, :]
    mx = lam.max(axis=1, keepdims=True)
    return float((mx[:, 0] + np.log(np.exp(lam - mx).sum(axis=1))).sum())


def grid_ascent_fit(
    cells: np.ndarray,
    a_grid,
    b_grid,
    nodes,
    weights,
    max_sweeps: int = 60,
):
    """Cyclic per-item exhaustive grid search of the marginal log-likelihood.

    Each pass sets every item in turn to its best (a, b) grid point with the
    other items held fixed, repeating until no item moves: a coordinate-wise
    maximum over the grid (the joint grid is astronomically large). Returns
    (list of (a, b), marginal log-likelihood).
    """
    nodes = np.asarray(nodes, dtype=float)
    logw = np.log(np.asarray(weights, dtype=float))
    a_grid = np.asarray(a_grid, dtype=float)
    b_grid = np.asarray(b_grid, dtype=float)
    ga, gb = np.meshgrid(a_grid, b_grid, indexing="ij")
    cand_a = ga.ravel()
    cand_b = gb.ravel()
    z = cand_a[:, None] * (nodes[None, :] - cand_b[:, None])  # (G, K)
    cand_log_p = _log_sigmoid_np(z)
    cand_log_q = cand_log_p - z
    cand_p = np.exp(cand_log_p)
    cand_q = np.exp(cand_log_q)

    n_students, n_items = cells.shape
    ones = cells == 1
    zeros = cells == 0

    # start every item near a=1, b=-logit(share correct)
    choice = np.empty(n_items, dtype=int)
    for j in range(n_items):
        obs = cells[:, j] != -1
        share = cells[obs, j].mean() if obs.any() else 0.5
        share = min(max(share, 1e-3), 1 - 1e-3)
        b0 = min(max(-math.log(share / (1 - share)), b_grid[0]), b_grid[-1])
        choice[j] = np.argmin(np.abs(cand_a - 1.0) * 1e6 + np.abs(cand_b - b0))

    for _ in range(max_sweeps):
        moved = False
        for j in range(n_items):
            lam_others = logw[None, :].repeat(n_students, axis=0).copy()
            for i in range(n_items):
                if i == j:
                    continue
                lam_others[ones[:, i]] += cand_log_p[choice[i]]
                lam_others[zeros[:, i]] += cand_log_q[choice[i]]
            shift = lam_others.max(axis=1, keepdims=True)
            e = np.exp(lam_others - shift)  # (S, K)
            score = np.zeros(len(cand_a))
            if ones[:, j].any():
                score += np.log(e[ones[:, j]] @ cand_p.T).sum(axis=0)
            if zeros[:, j].any():
                score += np.log(e[zeros[:, j]] @ cand_q.T).sum(axis=0)
            best = int(np.argmax(score))
            if best != choice[j]:
                choice[j] = best
                moved = True
        if not moved:
            break

    params = [(float(cand_a[g]), float(cand_b[g])) for g in choice]
    return params, marginal_ll_np(cells, params, nodes, weights)


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _expected_loglik(alpha: float, beta: float, nodes, r_k, n_k) -> float:
    z = alpha + beta * nodes
    return float((r_k * z).sum() - (n_k * np.logaddexp(0.0, z)).sum())


def maximize_item(nodes, r_k, n_k, alpha: float, beta: float, max_steps: int) -> tuple[float, float]:
    """Scalar damped Newton ascent of one item's expected log-likelihood.

    ``r_k`` and ``n_k`` are the item's expected correct and observed counts
    per node; (alpha, beta) is its intercept and slope. Candidate steps are
    halved (at most 30 times) until they do not lower the objective. Sums
    are elementwise products reduced with ``sum``, the reduction the
    vectorized solver applies to each row: near the optimum the objective
    moves by less than its rounding, so accepting or rejecting a step there
    depends on the last bit.
    """
    nodes = np.asarray(nodes, dtype=float)
    value = _expected_loglik(alpha, beta, nodes, r_k, n_k)
    for _ in range(max_steps):
        p = _sigmoid_np(alpha + beta * nodes)
        resid = r_k - n_k * p
        g0 = resid.sum()
        g1 = (resid * nodes).sum()
        if max(abs(g0), abs(g1)) < 1e-10:
            break
        w = n_k * p * (1.0 - p)
        h00 = w.sum()
        h01 = (w * nodes).sum()
        h11 = (w * (nodes * nodes)).sum()
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
            cand_v = _expected_loglik(cand_a, cand_b, nodes, r_k, n_k)
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


def observed_information_loop(cells: np.ndarray, post: np.ndarray, alpha, beta, nodes) -> list:
    """Observed information per item in (a, b), one item at a time.

    ``cells`` holds 0/1 scores with -1 for missing; ``post`` the students'
    posterior node weights at (alpha, beta). For each item, the per-student
    scores and per-node curvatures of its observed students give the
    (alpha, beta) Hessian of the marginal log-likelihood, which the Jacobian
    of (alpha, beta) = (-a*b, a) maps to (a, b). Returns one 2x2 block per
    column, or None where the block is not positive definite.
    """
    nodes = np.asarray(nodes, dtype=float)
    p = _sigmoid_np(np.asarray(alpha)[None, :] + np.asarray(beta)[None, :] * nodes[:, None])  # (K, I)
    blocks: list = []
    for j in range(cells.shape[1]):
        oj = cells[:, j] != -1
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
        info = -(jac.T @ h_int @ jac + g_alpha_total * np.array([[0.0, -1.0], [-1.0, 0.0]]))
        if info[0, 0] <= 0.0 or np.linalg.det(info) <= 0.0:
            blocks.append(None)
        else:
            blocks.append(info)
    return blocks
