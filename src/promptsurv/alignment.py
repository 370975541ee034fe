"""Prompt-to-token alignment via entropic optimal transport.

Tokens are matched to a prompt set by solving an entropy-regularized
transport problem on the cosine-distance cost matrix with Sinkhorn's matrix
scaling. Each column of the plan becomes matching probabilities (a softmax
of 1 - plan over the tokens), a token's alignment score sums them over the
prompts, and the top-scoring fraction of tokens is kept.

The solver scales the kernel exp(-cost/epsilon) and returns a plan whose rows
are exact to rounding. That matters because a token's score depends on its
row sum at first order: at an exact plan every row sum is 1/M and only the
much smaller second-order terms rank the tokens, so a row error the size of
the solver tolerance would decide the selection on large bags. The score is
ranked in its expm1 form, which keeps the precision that 1 - plan rounds
away: at tol <= 1e-8 the selection does not depend on the tolerance, though
at the default 1e-6 the plan itself can still move one token of a 2^18-token
bag. Where the kernel underflows (small epsilon) the same iterations run on
log-domain potentials.

Scoring is a hard, non-differentiated mechanism: gradients never propagate
through the solver or the scores, only through the values of the selected
tokens downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import top_count
from .errors import ConfigError, DegenerateInputError, ShapeError

SINKHORN_EPSILON = 0.1
SINKHORN_TOL = 1e-6
SINKHORN_MAX_ITERS = 1000
# Smallest kernel entry the scaling loop accepts. Above it every entry of
# exp(-C/epsilon) is a normal float with range to spare for the scalings;
# below it the log-domain loop runs.
KERNEL_FLOOR = 1e-150


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
        # written so that NaN fails each comparison and ±inf falls out of range
        for name, marg in (("u", self.u), ("v", self.v)):
            if not (marg.size and marg.min() >= 0.0 and abs(marg.sum() - 1.0) <= 1e-9):
                raise ConfigError(f"marginal {name} must be nonnegative and sum to 1")
        if not (self.cost.min() >= -1e-12 and self.cost.max() <= 2.0 + 1e-12):
            raise ConfigError("cost entries must be finite and in [0, 2]")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")

    @classmethod
    def uniform(cls, cost: np.ndarray, epsilon: float = SINKHORN_EPSILON,
                max_iters: int = SINKHORN_MAX_ITERS, tol: float = SINKHORN_TOL):
        m, n = cost.shape
        return cls(cost=cost, u=np.full(m, 1.0 / m), v=np.full(n, 1.0 / n),
                   epsilon=epsilon, max_iters=max_iters, tol=tol)


@dataclass
class SinkhornResult:
    plan: np.ndarray
    cost: np.ndarray  # the problem's cost matrix
    converged: bool
    residual: float
    iterations: int

    @property
    def cost_value(self) -> float:
        """The transport cost <plan, cost>, computed when read: a selection
        needs only the plan."""
        return float((self.plan * self.cost).sum())


class Selection(NamedTuple):
    """Kept token indices (ascending) and the health of the solve that chose
    them; cosine scoring always reads converged."""

    selected: np.ndarray
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
    """Sinkhorn iterations for the entropic transport problem, ending row-exact.

    Each iteration sets the row scaling, so the plan a·K·b meets the row
    marginal to rounding, then stops if that plan's worst column error is at
    most tol, and otherwise sets the column scaling. The returned plan is
    therefore always row-exact: its row sums, which enter the alignment
    score at first order, carry no solver error, and the column error that
    remains is bounded by tol. `residual` is the worse marginal error of the
    returned plan; a non-converged result is returned flagged, not raised.

    The scalings a and b act on the kernel K = exp(-C/epsilon): two
    matrix-vector products per iteration and no logarithms. For costs in
    [0, 2] at the default epsilon 0.1, K >= e^-20, so nothing can underflow.
    Where the kernel does underflow (an entry below `KERNEL_FLOOR`, as at
    small epsilon), the same iterations run on log-domain potentials.
    """
    kernel = np.exp(problem.cost / -problem.epsilon)
    if kernel.min() < KERNEL_FLOOR:
        plan, iterations = _sinkhorn_log(problem)
    else:
        plan, iterations = _sinkhorn_scaling(problem, kernel)
    residual = max(np.abs(plan.sum(axis=1) - problem.u).max(),
                   np.abs(plan.sum(axis=0) - problem.v).max())
    return SinkhornResult(
        plan=plan,
        cost=problem.cost,
        converged=bool(residual <= problem.tol),
        residual=float(residual),
        iterations=iterations,
    )


def _sinkhorn_scaling(problem: TransportProblem, kernel: np.ndarray):
    u, v, tol, last = problem.u, problem.v, problem.tol, problem.max_iters
    kernel_t = kernel.T
    b = np.ones(kernel.shape[1])
    for iterations in range(1, last + 1):
        a = u / (kernel @ b)
        col_mass = kernel_t @ a   # column sums of the plan are b * col_mass
        if iterations == last or np.abs(b * col_mass - v).max() <= tol:
            break
        b = v / col_mass
    return a[:, None] * kernel * b, iterations


def _sinkhorn_log(problem: TransportProblem):
    """The scaling loop on potentials f = eps·log a and g = eps·log b."""
    u, v, eps = problem.u, problem.v, problem.epsilon
    tol, last = problem.tol, problem.max_iters
    # log marginals; zero-mass bins never receive plan mass
    with np.errstate(divide="ignore"):
        log_u = np.where(u > 0.0, np.log(np.maximum(u, 1e-300)), -np.inf)
        log_v = np.where(v > 0.0, np.log(np.maximum(v, 1e-300)), -np.inf)
    neg_cost = problem.cost / -eps
    g = np.zeros(neg_cost.shape[1])
    for iterations in range(1, last + 1):
        f = eps * (log_u - _logsumexp(neg_cost + g / eps, axis=1))
        log_col_mass = _logsumexp(neg_cost + f[:, None] / eps, axis=0)
        if iterations == last or np.abs(np.exp(g / eps + log_col_mass) - v).max() <= tol:
            break
        g = eps * (log_v - log_col_mass)
    return np.exp(neg_cost + f[:, None] / eps + g / eps), iterations


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)
    return out


def alignment_score(plan: np.ndarray) -> np.ndarray:
    """Per-token alignment score, less a constant that every token shares.

    The paper's score, the row sum of the column softmax of 1 - P, is
    sum_j (1 + E_ij) / S_j with E = expm1(-P) and S_j = M + sum_k E_kj; this
    drops the shared sum_j 1/S_j. expm1 keeps the relative precision of the
    plan entries that rank tokens on large bags, and -P in [-1, 0] cannot
    overflow.
    """
    e = np.expm1(-plan)
    return e @ (1.0 / (plan.shape[0] + e.sum(axis=0)))


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
              max_iters: int = SINKHORN_MAX_ITERS) -> Selection:
    """Full alignment of one token matrix against a prompt matrix.

    Transport scoring with uniform marginals, then top-r selection. Returns
    the kept indices and the solve's health; the plan and the score are what
    `sinkhorn` and `alignment_score` give. With exact plan rows and the expm1
    score, the kept tokens do not depend on a tol <= 1e-8; at the default
    1e-6 the plan can still move one token of a 2^18-token bag.
    """
    result = sinkhorn(TransportProblem.uniform(
        cosine_cost(tokens, prompts), epsilon=epsilon, max_iters=max_iters, tol=tol))
    score = alignment_score(result.plan)
    return Selection(select_top(score, r), result.converged, result.residual)


# ---------------------------------------------------------------------------
# cosine-similarity scoring used by the reduced pipeline variants


def cosine_scores_single(tokens: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Score against one prompt: the mean of the prompt set."""
    mean_prompt = prompts.mean(axis=0, keepdims=True)
    return 1.0 - cosine_cost(tokens, mean_prompt)[:, 0]


def cosine_scores_multi(tokens: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Mean cosine similarity across all prompts."""
    return (1.0 - cosine_cost(tokens, prompts)).mean(axis=1)
