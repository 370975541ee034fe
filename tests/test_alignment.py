import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

from promptsurv.alignment import (
    Selection,
    TransportProblem,
    alignment_score,
    cosine_cost,
    cosine_scores_multi,
    cosine_scores_single,
    match_bag,
    select_top,
    sinkhorn,
)
from promptsurv.data import PATCH, REGION, SynthSpec, generate_synthetic
from promptsurv.errors import ConfigError, DegenerateInputError


def lp_transport_cost(cost, u, v):
    """Exact minimum transport cost on a small instance (independent oracle)."""
    m, n = cost.shape
    a_eq, b_eq = [], []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n:(i + 1) * n] = 1.0
        a_eq.append(row)
        b_eq.append(u[i])
    for j in range(n - 1):  # final column constraint is redundant
        col = np.zeros(m * n)
        col[j::n] = 1.0
        a_eq.append(col)
        b_eq.append(v[j])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def log_domain_reference_plan(cost, epsilon=0.1, tol=1e-13):
    """Uniform-marginal plan from log-domain Sinkhorn, both marginals <= tol.

    An independent loop (scipy's logsumexp, both marginals checked on the
    plan after each row update), run far below the library's tolerance.
    """
    m, n = cost.shape
    log_u, log_v = np.full(m, -np.log(m)), np.full(n, -np.log(n))
    neg_cost = -cost / epsilon
    g = np.zeros(n)
    for _ in range(100_000):
        f = epsilon * (log_u - logsumexp(neg_cost + g / epsilon, axis=1))
        plan = np.exp(neg_cost + (f[:, None] + g) / epsilon)
        if max(np.abs(plan.sum(axis=1) - 1.0 / m).max(),
               np.abs(plan.sum(axis=0) - 1.0 / n).max()) <= tol:
            return plan
        g = epsilon * (log_v - logsumexp(neg_cost + f[:, None] / epsilon, axis=0))
    raise AssertionError("reference Sinkhorn did not reach its tolerance")


def paper_matching_probability(plan):
    """The paper's chain, as the reference: a column softmax of 1 - plan,
    shifted by each column's peak."""
    shifted = 1.0 - plan
    shifted -= shifted.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def paper_score(plan):
    """The paper's per-token score: row sums of the matching probability."""
    return paper_matching_probability(plan).sum(axis=1)


def shared_constant(plan):
    """sum_j 1/S_j with S_j = sum_k exp(-P_kj): what the paper's score adds
    to every token on top of `alignment_score`."""
    return (1.0 / np.exp(-plan).sum(axis=0)).sum()


class TestCostMatrix:
    def test_identical_unit_vectors_cost_zero(self):
        v = np.array([[1.0, 0.0]])
        assert cosine_cost(v, v)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_cost_one(self):
        cost = cosine_cost(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert cost[0, 0] == pytest.approx(1.0)

    def test_antipodal_cost_two(self):
        cost = cosine_cost(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert cost[0, 0] == pytest.approx(2.0)

    def test_scale_invariance_and_range(self):
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(6, 4))
        prompts = rng.normal(size=(3, 4))
        cost = cosine_cost(tokens, prompts)
        scaled = cosine_cost(tokens * 5.0, prompts * 0.2)
        assert cost == pytest.approx(scaled, abs=1e-12)
        assert np.all(cost >= 0.0) and np.all(cost <= 2.0)

    def test_zero_norm_token_rejected_with_index(self):
        tokens = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="index 1"):
            cosine_cost(tokens, np.array([[1.0, 0.0]]))


class TestSinkhorn:
    def test_single_cell_plan_forced_by_marginals(self):
        res = sinkhorn(TransportProblem(cost=np.array([[0.5]]),
                                        u=np.array([1.0]), v=np.array([1.0])))
        assert res.plan == pytest.approx(np.array([[1.0]]), abs=1e-12)
        assert res.cost_value == pytest.approx(0.5, abs=1e-12)

    def test_zero_cost_gives_outer_product(self):
        res = sinkhorn(TransportProblem.uniform(np.zeros((2, 2))))
        assert res.plan == pytest.approx(np.full((2, 2), 0.25), abs=1e-9)

    def test_small_epsilon_recovers_permutation(self):
        res = sinkhorn(TransportProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            u=np.array([0.5, 0.5]), v=np.array([0.5, 0.5]), epsilon=0.01))
        assert res.plan == pytest.approx(np.diag([0.5, 0.5]), abs=1e-6)
        exact = lp_transport_cost(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert res.cost_value <= exact + 0.01 * 4 * np.log(4)

    def test_random_suite_marginals_and_entropic_gap(self):
        rng = np.random.default_rng(12345)
        for trial in range(30):
            m, n = [(2, 2), (3, 3), (4, 4)][trial % 3]
            cost = rng.uniform(0.0, 2.0, size=(m, n))
            u = rng.dirichlet(np.ones(m))
            v = rng.dirichlet(np.ones(n))
            res = sinkhorn(TransportProblem(cost=cost, u=u, v=v, epsilon=0.1))
            assert res.converged
            assert np.abs(res.plan.sum(axis=1) - u).max() <= 1e-6
            assert np.abs(res.plan.sum(axis=0) - v).max() <= 1e-6
            exact = lp_transport_cost(cost, u, v)
            bound = 0.1 * m * n * abs(np.log(m * n))
            assert res.cost_value <= exact + bound
            assert res.cost_value >= exact - 1e-5  # feasibility slack at tol

    def test_nonconvergence_flagged_not_raised(self):
        problem = TransportProblem(cost=np.array([[0.1, 1.7], [1.2, 0.3]]),
                                   u=np.array([0.9, 0.1]), v=np.array([0.2, 0.8]),
                                   epsilon=1e-3, max_iters=1, tol=1e-14)
        res = sinkhorn(problem)
        assert not res.converged
        assert res.residual > 1e-14
        assert res.iterations == 1

    def test_residual_is_worst_marginal_error_of_returned_plan(self):
        rng = np.random.default_rng(21)
        problems = [TransportProblem(cost=rng.uniform(0.0, 2.0, size=(m, n)),
                                     u=rng.dirichlet(np.ones(m)),
                                     v=rng.dirichlet(np.ones(n)), epsilon=eps,
                                     max_iters=iters)
                    for m, n in [(3, 5), (8, 8), (128, 8)]
                    for eps in (0.1, 1e-3) for iters in (1, 3, 1000)]
        for problem in problems:
            res = sinkhorn(problem)
            assert res.residual == max(np.abs(res.plan.sum(axis=1) - problem.u).max(),
                                       np.abs(res.plan.sum(axis=0) - problem.v).max())
            assert res.converged == (res.residual <= problem.tol)

    def test_returned_plan_is_row_exact(self):
        rng = np.random.default_rng(22)
        for m, eps in [(8, 0.1), (128, 0.1), (2048, 0.1), (8, 1e-3)]:
            u = rng.dirichlet(np.ones(m))
            res = sinkhorn(TransportProblem(cost=rng.uniform(0.0, 2.0, size=(m, 8)),
                                            u=u, v=np.full(8, 0.125), epsilon=eps,
                                            max_iters=2))
            assert np.abs(res.plan.sum(axis=1) - u).max() <= 1e-12

    def test_log_domain_path_converges_where_kernel_underflows(self):
        cost = np.array([[0.1, 1.7], [1.2, 0.3]])
        assert np.exp(-cost / 1e-3).min() == 0.0
        u, v = np.array([0.9, 0.1]), np.array([0.2, 0.8])
        res = sinkhorn(TransportProblem(cost=cost, u=u, v=v, epsilon=1e-3,
                                        max_iters=10_000, tol=1e-6))
        assert res.converged
        assert np.abs(res.plan.sum(axis=1) - u).max() <= 1e-6
        assert np.abs(res.plan.sum(axis=0) - v).max() <= 1e-6
        assert res.cost_value == pytest.approx(lp_transport_cost(cost, u, v), abs=1e-3)

    @pytest.mark.parametrize("m", [8, 128])
    def test_selections_match_log_domain_reference(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            tokens, prompts = rng.normal(size=(m, 16)), rng.normal(size=(8, 16))
            reference = log_domain_reference_plan(cosine_cost(tokens, prompts))
            expected = select_top(paper_score(reference), 0.6)
            assert np.array_equal(match_bag(tokens, prompts, r=0.6).selected, expected)

    @pytest.mark.parametrize("settings", [
        {"epsilon": float("nan")}, {"epsilon": float("inf")},
        {"max_iters": 0}, {"max_iters": -1},
    ])
    def test_solver_settings_validated(self, settings):
        with pytest.raises(ConfigError, match=next(iter(settings))):
            TransportProblem.uniform(np.zeros((2, 2)), **settings)

    def test_marginal_validation(self):
        with pytest.raises(ConfigError):
            TransportProblem(cost=np.zeros((2, 2)),
                             u=np.array([0.7, 0.7]), v=np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            TransportProblem.uniform(np.zeros((2, 2)), epsilon=0.0)

    @pytest.mark.parametrize("u, v", [
        ([0.5, 0.500009], [0.5, 0.5]),      # off by 9e-6: no plan can balance it
        ([0.5, 0.5], [0.5 - 2e-9, 0.5]),
        ([0.5, float("nan")], [0.5, 0.5]),
        ([1.5, -0.5], [0.5, 0.5]),
        ([], [1.0]),
    ])
    def test_marginal_sums_to_one_within_1e9(self, u, v):
        with pytest.raises(ConfigError, match="marginal"):
            TransportProblem(cost=np.zeros((len(u), len(v))), u=np.array(u), v=np.array(v))

    def test_marginal_rounding_accepted(self):
        for m in (3, 7, 2048):
            TransportProblem.uniform(np.zeros((m, 8)))
        TransportProblem(cost=np.zeros((2, 2)), u=np.array([0.5, 0.5 + 5e-10]),
                         v=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf"),
                                       2.0 + 1e-9, -1e-9])
    def test_cost_out_of_range_rejected(self, entry):
        cost = np.ones((3, 2))
        cost[1, 1] = entry
        with pytest.raises(ConfigError, match="cost"):
            TransportProblem.uniform(cost)


class TestMatchingProbability:
    """The reference chain that `alignment_score` is checked against."""

    def test_constant_column_is_uniform(self):
        prob = paper_matching_probability(np.full((4, 2), 0.125))
        assert prob == pytest.approx(np.full((4, 2), 0.25), abs=1e-15)

    def test_hand_value_two_rows(self):
        prob = paper_matching_probability(np.array([[1.0], [0.0]]))
        e = np.e
        assert prob == pytest.approx(np.array([[1 / (1 + e)], [e / (1 + e)]]),
                                     abs=1e-12)

    def test_columns_sum_to_one_random(self):
        rng = np.random.default_rng(4)
        prob = paper_matching_probability(rng.uniform(size=(10, 6)) / 10)
        assert prob.sum(axis=0) == pytest.approx(np.ones(6), abs=1e-12)


def random_plans():
    """Seeded Sinkhorn plans on random tokens and prompts, small to large."""
    rng = np.random.default_rng(8)
    for m in (8, 128, 2048):
        for _ in range(10):
            cost = cosine_cost(rng.normal(size=(m, 16)), rng.normal(size=(8, 16)))
            yield sinkhorn(TransportProblem.uniform(cost)).plan


def planted_plans():
    """Plans of the patch and region bags of a planted cohort."""
    records, prompts, _ = generate_synthetic(SynthSpec(n_patients=6, seed=7))
    for rec in records:
        for bag, prompt_set in ((rec.patch_bag, prompts[PATCH]),
                                (rec.region_bag, prompts[REGION])):
            cost = cosine_cost(bag.tokens, prompt_set.prompts)
            yield sinkhorn(TransportProblem.uniform(cost)).plan


class TestAlignmentScore:
    def test_uniform_probability_splits_column_mass(self):
        plan = np.full((2, 3), 1.0 / 6)
        assert paper_score(plan) == pytest.approx(np.array([1.5, 1.5]), abs=1e-15)
        score = alignment_score(plan)
        assert score[0] == score[1]
        assert score == pytest.approx(1.5 - shared_constant(plan), abs=1e-15)

    def test_concentrated_token_outranks_spread_tokens(self):
        # row-exact: every token carries 1/3, token 0 on one prompt only
        plan = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]) / 3
        score = alignment_score(plan)
        assert score[0] > score[1] == score[2]
        assert score == pytest.approx(paper_score(plan) - shared_constant(plan),
                                      abs=1e-15)

    def test_scores_sum_to_prompt_count(self):
        rng = np.random.default_rng(5)
        plan = rng.uniform(size=(9, 5)) / 20
        assert paper_score(plan).sum() == pytest.approx(5.0, abs=1e-10)
        assert alignment_score(plan).sum() == pytest.approx(
            5.0 - 9 * shared_constant(plan), abs=1e-10)

    def test_keeps_the_relative_precision_of_small_plan_entries(self):
        # at P ~ 1e-12, expm1(-P) = -P + P^2/2 to far below float64 rounding;
        # exp(-P) - 1 would keep only about 4 of its 16 digits
        plan = np.random.default_rng(9).uniform(size=(64, 8)) * 1e-12
        e = -plan + plan * plan / 2
        reference = e @ (1.0 / (64 + e.sum(axis=0)))
        error = np.abs(alignment_score(plan) - reference).max()
        assert error <= 1e-12 * np.abs(reference).min()

    @pytest.mark.parametrize("plans", [random_plans, planted_plans])
    def test_is_the_paper_score_less_a_shared_constant(self, plans):
        for plan in plans():
            score, reference = alignment_score(plan), paper_score(plan)
            assert np.abs(score - (reference - shared_constant(plan))).max() <= 1e-12
            for r in (0.1, 0.6):
                assert np.array_equal(select_top(score, r), select_top(reference, r))


class TestSelectTop:
    def test_ordering(self):
        idx = select_top(np.array([0.9, 0.1, 0.5, 0.4]), 0.5)
        assert idx.tolist() == [0, 2]

    def test_tie_breaks_to_lower_index(self):
        idx = select_top(np.array([0.5, 0.5, 0.1]), 0.5)
        assert idx.tolist() == [0, 1]

    def test_k_floor_of_one(self):
        idx = select_top(np.array([0.2, 0.9]), 0.01)
        assert idx.tolist() == [1]

    def test_indices_ascending_not_by_score(self):
        idx = select_top(np.array([0.1, 0.9, 0.5, 0.8]), 0.75)
        assert idx.tolist() == [1, 2, 3]

    def test_permutation_consistency_on_tie_free_scores(self):
        rng = np.random.default_rng(6)
        score = rng.permutation(20).astype(float)  # distinct scores
        perm = rng.permutation(20)
        direct = set(select_top(score, 0.4).tolist())
        permuted = select_top(score[perm], 0.4)
        assert set(perm[permuted].tolist()) == direct

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            select_top(np.array([1.0]), 0.0)


class TestPlantedSignalRecovery:
    def test_selected_set_equals_planted_mask_at_zero_noise(self):
        spec = SynthSpec(n_patients=6, noise_sigma=0.0, censor_rate=0.0, seed=7)
        records, prompts, truth = generate_synthetic(spec)
        for i, rec in enumerate(records):
            result = match_bag(rec.patch_bag.tokens, prompts[PATCH].prompts,
                               r=spec.signal_fraction)
            assert result.converged
            expected = np.flatnonzero(truth.patch_signal[i])
            assert np.array_equal(result.selected, expected)

    @pytest.mark.parametrize("patches_per_region", [256, 1024])
    def test_large_bags_select_planted_mask_at_default_tol(self, patches_per_region):
        spec = SynthSpec(n_patients=12, patches_per_region=patches_per_region,
                         noise_sigma=0.0, censor_rate=0.0, seed=3)
        records, prompts, truth = generate_synthetic(spec)
        for i, rec in enumerate(records):
            result = match_bag(rec.patch_bag.tokens, prompts[PATCH].prompts,
                               r=spec.signal_fraction)
            assert result.converged
            assert np.array_equal(result.selected, np.flatnonzero(truth.patch_signal[i]))

    def test_slide_scale_selection_does_not_depend_on_tol(self):
        # M = 2^18 tokens at noise 1.0: the kept set's boundary margin is a few
        # ulps, which a score formed from 1 - plan rounds away
        spec = SynthSpec(n_patients=1, n_regions=8, patches_per_region=2**15,
                         noise_sigma=1.0, seed=12)
        records, prompts, _ = generate_synthetic(spec)
        tokens, prompt_rows = records[0].patch_bag.tokens, prompts[PATCH].prompts
        assert tokens.shape == (2**18, 32)
        loose, tight = (match_bag(tokens, prompt_rows, r=spec.signal_fraction, tol=tol)
                        for tol in (1e-8, 1e-12))
        assert loose.converged and tight.converged
        assert np.array_equal(loose.selected, tight.selected)

    def test_match_bag_invariants(self):
        spec = SynthSpec(n_patients=2, seed=3)
        records, prompts, _ = generate_synthetic(spec)
        tokens, prompt_rows = records[0].patch_bag.tokens, prompts[PATCH].prompts
        result = match_bag(tokens, prompt_rows, r=0.6)
        assert isinstance(result, Selection)
        solved = sinkhorn(TransportProblem.uniform(cosine_cost(tokens, prompt_rows)))
        plan = solved.plan
        score = alignment_score(plan)
        m, n = plan.shape
        assert np.abs(plan.sum(axis=1) - 1.0 / m).max() <= 1e-6
        assert np.abs(plan.sum(axis=0) - 1.0 / n).max() <= 1e-6
        assert score.sum() == pytest.approx(n - m * shared_constant(plan), abs=1e-10)
        assert np.array_equal(result.selected, select_top(score, 0.6))
        assert np.array_equal(result.selected, select_top(paper_score(plan), 0.6))
        assert result.selected.size == max(1, int(np.ceil(m * 0.6)))
        assert (result.converged, result.residual) == (solved.converged, solved.residual)


class TestCosineScores:
    def test_single_prompt_uses_prompt_mean(self):
        prompts = np.array([[1.0, 0.0], [0.0, 1.0]])
        tokens = np.array([[1.0, 1.0], [1.0, -1.0]])
        scores = cosine_scores_single(tokens, prompts)
        # prompt mean points along (1,1): first token aligned, second orthogonal
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0, abs=1e-12)

    def test_multi_prompt_is_mean_similarity(self):
        prompts = np.array([[1.0, 0.0], [0.0, 1.0]])
        tokens = np.array([[1.0, 0.0]])
        scores = cosine_scores_multi(tokens, prompts)
        assert scores[0] == pytest.approx(0.5)
