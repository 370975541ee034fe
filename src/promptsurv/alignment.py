"""Prompt-to-token alignment via entropic optimal transport.

Tokens are matched to a prompt set by solving an entropy-regularized
transport problem on the cosine-distance cost matrix with a log-domain
Sinkhorn solver. The transport plan is converted column-wise into matching
probabilities, summed over the prompt dimension into a per-token alignment
score, and the top-scoring fraction of tokens is kept.

Scoring is a hard, non-differentiated mechanism: gradients never propagate
through the solver or the scores, only through the values of the selected
tokens downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import top_count
from .errors import ConfigError, DegenerateInputError, ShapeError

SINKHORN_EPSILON = 0.1
SINKHORN_TOL = 1e-6
SINKHORN_MAX_ITERS = 1000


@dataclass
class TransportProblem:
    """Cost matrix plus marginals for one alignment instance.

    Marginals must be nonnegative and sum to one; cost entries live in
    [0, 2] (cosine distance range).
    """

    cost: np.ndarray      # M x N
    u: np.ndarray         # length M
    v: np.ndarray         # length N
    epsilon: float = SINKHORN_EPSILON
    max_iters: int = SINKHORN_MAX_ITERS
    tol: float = SINKHORN_TOL

    def __post_init__(self):
        self.cost = np.ascontiguousarray(self.cost, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        m, n = self.cost.shape
        if self.u.shape != (m,) or self.v.shape != (n,):
            raise ShapeError(
                f"marginals ({self.u.shape}, {self.v.shape}) do not match cost {self.cost.shape}"
            )
        for name, marg in (("u", self.u), ("v", self.v)):
            if np.any(marg < 0.0) or not np.isclose(marg.sum(), 1.0, atol=1e-9):
                raise ConfigError(f"marginal {name} must be nonnegative and sum to 1")
        if not np.all(np.isfinite(self.cost)) or \
                np.any(self.cost < -1e-12) or np.any(self.cost > 2.0 + 1e-12):
            raise ConfigError("cost entries must be finite and in [0, 2]")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def uniform(cls, cost: np.ndarray, epsilon: float = SINKHORN_EPSILON,
                max_iters: int = SINKHORN_MAX_ITERS, tol: float = SINKHORN_TOL):
        m, n = cost.shape
        return cls(cost=cost, u=np.full(m, 1.0 / m), v=np.full(n, 1.0 / n),
                   epsilon=epsilon, max_iters=max_iters, tol=tol)


@dataclass
class SinkhornResult:
    plan: np.ndarray
    cost_value: float
    converged: bool
    residual: float
    iterations: int


@dataclass
class MatchingResult:
    """Everything the alignment stage produces for one bag."""

    plan: np.ndarray           # M x N transport plan
    cost_value: float          # <plan, cost>
    probability: np.ndarray    # M x N, columns sum to 1
    score: np.ndarray          # length M alignment score
    selected: np.ndarray       # ascending indices of the kept tokens
    converged: bool = True
    residual: float = 0.0


def cosine_cost(tokens: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    tnorm = np.linalg.norm(tokens, axis=1)
    pnorm = np.linalg.norm(prompts, axis=1)
    if np.any(tnorm == 0.0):
        raise DegenerateInputError(f"zero-norm token at index {int(np.argmin(tnorm))}")
    if np.any(pnorm == 0.0):
        raise DegenerateInputError(f"zero-norm prompt at index {int(np.argmin(pnorm))}")
    sim = (tokens / tnorm[:, None]) @ (prompts / pnorm[:, None]).T
    # cosine can overshoot [-1, 1] by a few ulps; keep costs in [0, 2]
    return np.clip(1.0 - sim, 0.0, 2.0)


def sinkhorn(problem: TransportProblem) -> SinkhornResult:
    """Log-domain Sinkhorn iterations for the entropic transport problem.

    Alternates potential updates until the worst marginal residual drops
    to tol or max_iters is reached; a non-converged result is returned
    flagged rather than raised.
    """
    cost, u, v, eps = problem.cost, problem.u, problem.v, problem.epsilon
    m, n = cost.shape
    # log marginals; zero-mass bins never receive plan mass
    with np.errstate(divide="ignore"):
        log_u = np.where(u > 0.0, np.log(np.maximum(u, 1e-300)), -np.inf)
        log_v = np.where(v > 0.0, np.log(np.maximum(v, 1e-300)), -np.inf)
    f = np.zeros(m)
    g = np.zeros(n)
    neg_cost = -cost / eps

    residual = np.inf
    iterations = 0
    for iterations in range(1, problem.max_iters + 1):
        f = eps * (log_u - _logsumexp(neg_cost + g[None, :] / eps, axis=1))
        g = eps * (log_v - _logsumexp(neg_cost + f[:, None] / eps, axis=0))
        plan = _plan_from_potentials(neg_cost, f, g, eps)
        residual = max(
            np.abs(plan.sum(axis=1) - u).max(),
            np.abs(plan.sum(axis=0) - v).max(),
        )
        if residual <= problem.tol:
            break
    plan = _plan_from_potentials(neg_cost, f, g, eps)
    return SinkhornResult(
        plan=plan,
        cost_value=float((plan * cost).sum()),
        converged=residual <= problem.tol,
        residual=float(residual),
        iterations=iterations,
    )


def _plan_from_potentials(neg_cost, f, g, eps):
    return np.exp(neg_cost + f[:, None] / eps + g[None, :] / eps)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)
    return out


def matching_probability(plan: np.ndarray) -> np.ndarray:
    """Column-normalized exponentials of (1 - plan); every column sums to 1."""
    shifted = 1.0 - plan
    shifted -= shifted.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def alignment_score(probability: np.ndarray) -> np.ndarray:
    """Per-token score: row sums of the matching probability (totals to N)."""
    return probability.sum(axis=1)


def select_top(score: np.ndarray, r: float) -> np.ndarray:
    """Indices of the top max(1, ceil(M*r)) scores, ties to the lower index.

    The returned indices are ascending, so the selected submatrix keeps the
    tokens' original relative order.
    """
    if not 0.0 < r <= 1.0:
        raise ConfigError(f"selection ratio must be in (0,1], got {r}")
    m = score.shape[0]
    k = top_count(m, r)
    order = np.argsort(-score, kind="stable")
    return np.sort(order[:k])


def match_bag(tokens: np.ndarray, prompts: np.ndarray, r: float,
              epsilon: float = SINKHORN_EPSILON, tol: float = SINKHORN_TOL,
              max_iters: int = SINKHORN_MAX_ITERS) -> MatchingResult:
    """Full alignment of one token matrix against a prompt matrix.

    Transport scoring with uniform marginals, then top-r selection.
    """
    cost = cosine_cost(tokens, prompts)
    result = sinkhorn(TransportProblem.uniform(
        cost, epsilon=epsilon, max_iters=max_iters, tol=tol))
    probability = matching_probability(result.plan)
    score = alignment_score(probability)
    return MatchingResult(
        plan=result.plan,
        cost_value=result.cost_value,
        probability=probability,
        score=score,
        selected=select_top(score, r),
        converged=result.converged,
        residual=result.residual,
    )


# ---------------------------------------------------------------------------
# cosine-similarity scoring used by the reduced pipeline variants


def cosine_scores_single(tokens: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Score against one prompt: the mean of the prompt set."""
    mean_prompt = prompts.mean(axis=0, keepdims=True)
    return 1.0 - cosine_cost(tokens, mean_prompt)[:, 0]


def cosine_scores_multi(tokens: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Mean cosine similarity across all prompts."""
    return (1.0 - cosine_cost(tokens, prompts)).mean(axis=1)
