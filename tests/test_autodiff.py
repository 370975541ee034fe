import numpy as np
import pytest

import ad_chain as ad
from promptsurv.errors import DegenerateInputError, DomainError, EmptyInputError, ShapeError
from promptsurv.autodiff import _row_sum as row_sum


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return grad


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert out.value == pytest.approx(np.array([[11.0]]))

    def test_gradient_vs_finite_difference(self):
        b = np.eye(2)

        def f(a_values):
            return float((a_values @ b).sum())

        a_values = np.ones((2, 2))
        expected = finite_difference(f, a_values.copy())
        a = ad.parameter(a_values)
        out = ad.sum_all(ad.matmul(a, ad.constant(b)))
        out.backward()
        assert a.grad == pytest.approx(expected, abs=1e-9)
        assert a.grad == pytest.approx(np.ones((2, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            ad.matmul(ad.constant(np.ones((1, 2))), ad.constant(np.ones((3, 1))))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant([[0.0]])).value[0, 0] == 0.5

    def test_tanh_at_zero(self):
        assert ad.tanh(ad.constant([[0.0]])).value[0, 0] == 0.0

    def test_sigmoid_derivative_at_zero(self):
        x = ad.parameter([[0.0]])
        ad.sigmoid(x).backward()
        numeric = finite_difference(
            lambda v: 1.0 / (1.0 + np.exp(-v[0, 0])), np.zeros((1, 1)))
        assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-10)
        assert x.grad[0, 0] == pytest.approx(numeric[0, 0], abs=1e-9)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(ad.constant([[-800.0, 800.0]]))
        assert np.all(np.isfinite(out.value))
        assert out.value == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-12)

    def test_log_rejects_nonpositive_with_index(self):
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            ad.log(ad.constant([[1.0, -2.0]]))

    def test_exp_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ad.exp(ad.constant([[1000.0]]))

    def test_binary_ops_require_equal_shapes(self):
        with pytest.raises(ShapeError):
            ad.add(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            ad.mul(ad.constant(np.ones((2, 2))), ad.constant(np.ones((1, 2))))

    @pytest.mark.parametrize("op,deriv", [
        (ad.exp, np.exp),
        (ad.tanh, lambda x: 1 - np.tanh(x) ** 2),
        (ad.neg, lambda x: -np.ones_like(x)),
    ])
    def test_gradients_match_finite_differences(self, op, deriv):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(2, 3))
        x = ad.parameter(values.copy())
        ad.sum_all(op(x)).backward()
        assert x.grad == pytest.approx(deriv(values), rel=1e-7, abs=1e-9)

    def test_scale_and_mul_chain(self):
        x = ad.parameter([[2.0, -1.0]])
        out = ad.sum_all(ad.mul(ad.scale(x, 3.0), x))  # 3 * x^2
        out.backward()
        assert out.value[0, 0] == pytest.approx(15.0)
        assert x.grad == pytest.approx(np.array([[12.0, -6.0]]))

    def test_clamp_min_forward_and_gradient(self):
        x = ad.parameter([[1e-20, 0.5]])
        out = ad.clamp_min(x, 1e-12)
        assert out.value == pytest.approx(np.array([[1e-12, 0.5]]))
        ad.sum_all(out).backward()
        assert x.grad == pytest.approx(np.array([[0.0, 1.0]]))


class TestReduce:
    def test_sum_all(self):
        out = ad.sum_all(ad.constant([[1.0, 2.0], [3.0, 4.0]]))
        assert out.value[0, 0] == 10.0

    def test_sum_cols_of_ones(self):
        out = ad.sum_cols(ad.constant(np.ones((2, 3))))
        assert np.array_equal(out.value, [[2.0, 2.0, 2.0]])

    def test_sum_rows_orientation(self):
        out = ad.sum_rows(ad.constant([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out.value, [[3.0], [7.0]])

    def test_mean_rows(self):
        out = ad.mean_rows(ad.constant([[1.0, 3.0], [3.0, 5.0]]))
        assert np.array_equal(out.value, [[2.0, 4.0]])

    def test_sum_all_gradient_is_ones(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInputError):
            ad.sum_all(ad.constant(np.zeros((0, 3))))


class TestConcatAndGather:
    def test_concat_rows_shape(self):
        out = ad.concat_rows(ad.constant(np.ones((1, 2))), ad.constant(np.zeros((1, 2))))
        assert out.value.shape == (2, 2)

    def test_concat_with_empty_is_identity(self):
        a = np.array([[1.0, 2.0]])
        out = ad.concat_rows(ad.constant(a), ad.constant(np.zeros((0, 2))))
        assert np.array_equal(out.value, a)

    def test_concat_gradient_splits(self):
        a = ad.parameter(np.ones((1, 2)))
        b = ad.parameter(np.ones((2, 2)))
        ad.sum_all(ad.concat_rows(a, b)).backward()
        assert np.array_equal(a.grad, np.ones((1, 2)))
        assert np.array_equal(b.grad, np.ones((2, 2)))

    def test_concat_cols_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_cols(ad.constant(np.ones((2, 1))), ad.constant(np.ones((3, 1))))

    def test_gather_rows_forward_backward(self):
        x = ad.parameter(np.arange(12.0).reshape(4, 3))
        out = ad.gather_rows(x, [2, 0])
        assert np.array_equal(out.value, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
        ad.sum_all(out).backward()
        assert np.array_equal(x.grad, [[1.0] * 3, [0.0] * 3, [1.0] * 3, [0.0] * 3])

    def test_gather_rows_repeated_index_accumulates(self):
        x = ad.parameter(np.ones((2, 2)))
        ad.sum_all(ad.gather_rows(x, [0, 0])).backward()
        assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0]])

    def test_transpose_roundtrip_gradient(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.sum_all(ad.transpose(x)).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))


class TestSoftmaxCols:
    def test_equal_logits(self):
        out = ad.softmax_cols(ad.constant([[0.0], [0.0]]))
        assert out.value == pytest.approx(np.array([[0.5], [0.5]]))

    def test_large_logits_no_overflow(self):
        out = ad.softmax_cols(ad.constant([[1000.0], [1000.0]]))
        assert out.value == pytest.approx(np.array([[0.5], [0.5]]))

    def test_hand_value(self):
        out = ad.softmax_cols(ad.constant([[0.0], [np.log(3.0)]]))
        assert out.value == pytest.approx(np.array([[0.25], [0.75]]), abs=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax_cols(ad.constant(rng.normal(size=(5, 4))))
        assert out.value.sum(axis=0) == pytest.approx(np.ones(4), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        shifted = x + np.array([10.0, -3.0, 0.25])  # constant per column
        a = ad.softmax_cols(ad.constant(x)).value
        b = ad.softmax_cols(ad.constant(shifted)).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(4, 2))
        weights = rng.normal(size=(4, 2))

        def f(v):
            shifted = v - v.max(axis=0, keepdims=True)
            e = np.exp(shifted)
            return float((weights * (e / e.sum(axis=0, keepdims=True))).sum())

        expected = finite_difference(f, values.copy())
        x = ad.parameter(values.copy())
        ad.sum_all(ad.mul(ad.softmax_cols(x), ad.constant(weights))).backward()
        assert x.grad == pytest.approx(expected, abs=1e-8)


class TestGraphMechanics:
    def test_reused_node_accumulates_once_per_path(self):
        x = ad.parameter([[3.0]])
        out = ad.mul(x, x)  # x^2, both parents are the same node
        out.backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_constants_get_no_gradient(self):
        c = ad.constant([[1.0, 2.0]])
        x = ad.parameter([[1.0, 1.0]])
        ad.sum_all(ad.mul(c, x)).backward()
        assert c.grad is None
        assert np.array_equal(x.grad, [[1.0, 2.0]])

    def test_deep_chain_backward(self):
        x = ad.parameter([[1.0]])
        node = x
        for _ in range(300):
            node = ad.scale(node, 1.0)
        node.backward()
        assert x.grad[0, 0] == 1.0

    def test_forward_values_are_finite_on_finite_inputs(self):
        rng = np.random.default_rng(5)
        x = ad.constant(rng.normal(size=(3, 3)))
        y = ad.constant(rng.normal(size=(3, 3)))
        outs = [
            ad.matmul(x, y), ad.add(x, y), ad.mul(x, y), ad.neg(x),
            ad.sigmoid(x), ad.tanh(x), ad.exp(x), ad.softmax_cols(x),
            ad.sum_all(x), ad.sum_rows(x), ad.sum_cols(x), ad.mean_rows(x),
        ]
        for out in outs:
            assert np.all(np.isfinite(out.value))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def f(params):
            (x,) = params
            return ad.sum_all(ad.mul(x, x))

        x = ad.parameter([[3.0]])
        err = ad.grad_check(f, [x], h=1e-5)
        # central differences are exact for quadratics up to rounding
        assert err <= 1e-10
        x.zero_grad()
        f([x]).backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.normal(size=(3, 4)))

        def f(params):
            return ad.sum_all(ad.sigmoid(params[0]))

        assert ad.grad_check(f, [x], h=1e-5) <= 1e-6

    def test_rejects_bad_step(self):
        x = ad.parameter([[1.0]])
        with pytest.raises(DomainError):
            ad.grad_check(lambda p: ad.sum_all(p[0]), [x], h=0.1)

    def test_random_composite_graphs(self):
        # compositions over the whole op vocabulary, checked coordinate-wise
        rng = np.random.default_rng(17)
        for _ in range(10):
            m, k, n = (int(v) for v in rng.integers(2, 5, size=3))
            a = ad.parameter(rng.normal(size=(m, k)))
            b = ad.parameter(rng.normal(size=(k, n)))
            c = ad.parameter(rng.normal(size=(m, n)))

            def f(params):
                pa, pb, pc = params
                x = ad.matmul(pa, pb)
                z = ad.add(ad.tanh(x), ad.mul(ad.sigmoid(pc), pc))
                w = ad.softmax_cols(z)
                first = ad.sum_all(ad.mul(w, z))
                picked = ad.gather_rows(ad.concat_rows(z, ad.neg(z)), [0, m])
                second = ad.sum_all(ad.exp(ad.scale(picked, 0.1)))
                third = ad.sum_all(ad.mean_rows(ad.concat_cols(z, x)))
                return ad.add(ad.add(first, second), third)

            assert ad.grad_check(f, [a, b, c], h=1e-5) <= 1e-4


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = ad.parameter(rng.normal(size=(4, 4)))
            w = ad.parameter(rng.normal(size=(4, 2)))
            out = ad.sum_all(ad.sigmoid(ad.matmul(x, w)))
            out.backward()
            return out.value.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


def weighted_sum(out, weights):
    """Scalar with a distinct gradient for every entry of `out`."""
    return ad.sum_all(ad.mul(out, ad.constant(weights)))


def assert_bit_identical(fused, chain, weights, params_fused, params_chain):
    """Forward values and every parameter gradient agree byte for byte."""
    assert fused.value.tobytes() == chain.value.tobytes()
    weighted_sum(fused, weights).backward()
    weighted_sum(chain, weights).backward()
    for pf, pc in zip(params_fused, params_chain):
        assert pf.grad.tobytes() == pc.grad.tobytes()


def twin_parameters(*arrays):
    """Two independent sets of parameter nodes over copies of the same values."""
    return ([ad.parameter(a.copy()) for a in arrays],
            [ad.parameter(a.copy()) for a in arrays])


def linear_chain(x, weight, bias):
    ones = ad.constant(np.ones((x.shape[0], 1)))
    return ad.add(ad.matmul(x, weight), ad.matmul(ones, bias))


def lerp_chain(w, a, b):
    ones = ad.constant(np.ones(w.shape))
    return ad.add(ad.mul(w, a), ad.mul(ad.add(ones, ad.neg(w)), b))


def cumprod_complement_chain(h):
    one = ad.constant([[1.0]])
    running, out = one, None
    for t in range(h.shape[1]):
        basis = np.zeros((h.shape[1], 1))
        basis[t, 0] = 1.0
        h_t = ad.matmul(h, ad.constant(basis))
        running = ad.mul(running, ad.add(one, ad.neg(h_t)))
        out = running if out is None else ad.concat_cols(out, running)
    return out


def l2_normalize_row_chain(row):
    sq_norm = ad.sum_all(ad.mul(row, row))
    return ad.matmul(ad.exp(ad.scale(ad.log(sq_norm), -0.5)), row)


def contrastive_chain(anchor, positive, negatives, temperature):
    pos = ad.matmul(anchor, ad.transpose(positive))
    neg_dots = ad.matmul(anchor, ad.constant(negatives.T))
    if temperature != 1.0:
        pos = ad.scale(pos, 1.0 / temperature)
        neg_dots = ad.scale(neg_dots, 1.0 / temperature)
    denom = ad.add(ad.exp(pos), ad.sum_all(ad.exp(neg_dots)))
    return ad.add(ad.log(denom), ad.neg(pos))


def neg_log_entry_chain(row, col, floor):
    entry = ad.gather_rows(ad.transpose(row), [col])
    return ad.neg(ad.log(ad.clamp_min(entry, floor)))


def unit_rows(rng, rows, d):
    v = rng.normal(size=(rows, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFusedOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_is_bit_identical_to_its_chain(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        fused, chain = twin_parameters(rng.normal(size=(m, k)), rng.normal(size=(k, n)),
                                       rng.normal(size=(1, n)))
        assert_bit_identical(ad.linear(*fused), linear_chain(*chain),
                             rng.normal(size=(m, n)), fused, chain)

    def test_linear_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        params = [ad.parameter(rng.normal(size=s)) for s in ((3, 4), (4, 2), (1, 2))]
        weights = rng.normal(size=(3, 2))
        assert ad.grad_check(lambda p: weighted_sum(ad.linear(*p), weights),
                             params, h=1e-5) <= 1e-6

    def test_linear_shape_error_names_the_shapes(self):
        x, w = ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\).*\(1, 2\)"):
            ad.linear(x, w, ad.constant(np.ones((1, 2))))
        with pytest.raises(ShapeError, match=r"\(1, 3\)"):
            ad.linear(ad.constant(np.ones((2, 4))), w, ad.constant(np.ones((1, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_lerp_is_bit_identical_to_its_chain(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 7, size=2))
        fused, chain = twin_parameters(rng.uniform(size=shape), rng.normal(size=shape),
                                       rng.normal(size=shape))
        assert_bit_identical(ad.lerp(*fused), lerp_chain(*chain),
                             rng.normal(size=shape), fused, chain)

    def test_lerp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        params = [ad.parameter(rng.normal(size=(3, 4))) for _ in range(3)]
        weights = rng.normal(size=(3, 4))
        assert ad.grad_check(lambda p: weighted_sum(ad.lerp(*p), weights),
                             params, h=1e-5) <= 1e-6

    @pytest.mark.parametrize("hazards", [
        [0.2, 0.5, 0.7, 0.1],
        [0.3, 1.0, 0.6, 1.0],   # exactly 1: the product is 0 from there on
        [1.0, 0.0, 0.4],
        [0.9],
    ])
    def test_cumprod_complement_is_bit_identical_to_its_chain(self, hazards):
        rng = np.random.default_rng(len(hazards))
        fused, chain = twin_parameters(np.array([hazards]))
        assert_bit_identical(ad.cumprod_complement(*fused),
                             cumprod_complement_chain(*chain),
                             rng.normal(size=(1, len(hazards))), fused, chain)

    @pytest.mark.parametrize("hazards", [
        [[0.2, 0.5, 0.7, 0.1], [0.6, 0.3, 0.9, 0.4]],
        [[0.3, 1.0, 0.6, 1.0]],
    ])
    def test_cumprod_complement_gradients_match_finite_differences(self, hazards):
        h = ad.parameter(np.array(hazards))
        weights = np.random.default_rng(22).normal(size=h.shape)
        assert np.array_equal(ad.cumprod_complement(h).value,
                              np.cumprod(1.0 - h.value, axis=1))
        assert ad.grad_check(lambda p: weighted_sum(ad.cumprod_complement(p[0]), weights),
                             [h], h=1e-5) <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_l2_normalize_row_is_bit_identical_to_its_chain(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 12))
        fused, chain = twin_parameters(rng.normal(size=(1, d)))
        assert_bit_identical(ad.l2_normalize_row(*fused), l2_normalize_row_chain(*chain),
                             rng.normal(size=(1, d)), fused, chain)

    def test_l2_normalize_row_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        row = ad.parameter(rng.normal(size=(1, 5)))
        weights = rng.normal(size=(1, 5))
        assert ad.grad_check(lambda p: weighted_sum(ad.l2_normalize_row(p[0]), weights),
                             [row], h=1e-5) <= 1e-6

    def test_l2_normalize_row_rejects_a_zero_row(self):
        with pytest.raises(DegenerateInputError):
            ad.l2_normalize_row(ad.constant(np.zeros((1, 3))))

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 0.07])
    @pytest.mark.parametrize("seed", range(5))
    def test_contrastive_is_bit_identical_to_its_chain(self, seed, temperature):
        # the chain of two one-direction reference ops and their sum
        rng = np.random.default_rng(seed)
        d, k_a, k_b = (int(v) for v in rng.integers(1, 20, size=3))
        neg_a, neg_b = unit_rows(rng, k_a, d), unit_rows(rng, k_b, d)
        fused, chain = twin_parameters(unit_rows(rng, 1, d), unit_rows(rng, 1, d))
        assert_bit_identical(ad.mutual_contrastive(*fused, neg_a, neg_b, temperature),
                             ad.mutual_contrastive_chain(*chain, neg_a, neg_b, temperature),
                             rng.normal(size=(1, 1)), fused, chain)

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 0.07])
    @pytest.mark.parametrize("seed", range(5))
    def test_mutual_loss_over_two_parameters_is_bit_identical(self, seed, temperature):
        # each prototype is the anchor of one direction and the positive of the
        # other, so its gradient sums three terms in the chain's order
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 20))
        neg_region, neg_patch = unit_rows(rng, 5, d), unit_rows(rng, 3, d)

        def mutual(op, patch, region):
            return ad.add(op(patch, region, neg_region, temperature),
                          op(region, patch, neg_patch, temperature))

        fused, chain = twin_parameters(unit_rows(rng, 1, d), unit_rows(rng, 1, d))
        assert_bit_identical(ad.mutual_contrastive(*fused, neg_patch, neg_region, temperature),
                             mutual(contrastive_chain, *chain),
                             rng.normal(size=(1, 1)), fused, chain)

    def test_contrastive_gradients_match_finite_differences(self):
        rng = np.random.default_rng(24)
        params = [ad.parameter(v) for v in (unit_rows(rng, 1, 6), unit_rows(rng, 1, 6))]
        neg_a, neg_b = unit_rows(rng, 4, 6), unit_rows(rng, 3, 6)
        assert ad.grad_check(lambda p: ad.mutual_contrastive(*p, neg_a, neg_b, 0.5),
                             params, h=1e-5) <= 1e-6

    @pytest.mark.parametrize("op", [
        ad.mutual_contrastive,
        lambda a, b, neg_a, neg_b, t: ad.add(contrastive_chain(a, b, neg_b, t),
                                             contrastive_chain(b, a, neg_a, t)),
    ], ids=["contrastive", "contrastive_chain"])
    def test_contrastive_domain_errors_match_the_chain(self, op):
        anchor, positive = ad.parameter([[30.0, 0.0]]), ad.parameter([[30.0, 0.0]])
        negatives = np.array([[1.0, 0.0]])
        with pytest.raises(DomainError, match="exp overflow"):
            op(anchor, positive, negatives, negatives, 1.0)
        # every exponential underflows to 0 at a tiny temperature
        anchor, positive = ad.parameter([[1.0, 0.0]]), ad.parameter([[-1.0, 0.0]])
        negatives = np.array([[-1.0, 0.0]])
        with pytest.raises(DomainError, match="non-positive"):
            op(anchor, positive, negatives, negatives, 1e-3)

    def test_contrastive_rejects_mismatched_or_missing_negatives(self):
        a, b = ad.parameter(np.ones((1, 3))), ad.parameter(np.ones((1, 3)))
        fine = np.ones((2, 3))
        for neg_a, neg_b in ((fine, np.ones((2, 4))), (np.ones((2, 4)), fine)):
            with pytest.raises(ShapeError, match=r"\(2, 4\)"):
                ad.mutual_contrastive(a, b, neg_a, neg_b, 1.0)
        for neg_a, neg_b in ((fine, np.zeros((0, 3))), (np.zeros((0, 3)), fine)):
            with pytest.raises(EmptyInputError):
                ad.mutual_contrastive(a, b, neg_a, neg_b, 1.0)

    def test_contrastive_keeps_its_negatives_when_the_caller_writes_them(self):
        # a single negative row transposes into a contiguous column, which
        # an unforced conversion would alias
        rng = np.random.default_rng(27)
        values = unit_rows(rng, 1, 5), unit_rows(rng, 1, 5)
        negatives = unit_rows(rng, 1, 5), unit_rows(rng, 1, 5)

        def grads(overwrite):
            a, b = (ad.parameter(v.copy()) for v in values)
            own = [n.copy() for n in negatives]
            loss = ad.mutual_contrastive(a, b, *own, 0.5)
            if overwrite:
                for n in own:
                    n[...] = 0.0
            loss.backward()
            return a.grad.tobytes(), b.grad.tobytes()

        assert grads(overwrite=True) == grads(overwrite=False)

    @pytest.mark.parametrize("seed", range(5))
    def test_add_scaled_is_bit_identical_to_its_chain(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 5, size=2))
        factor = float(rng.choice([0.0, 1.0, -0.5, rng.uniform(0.001, 10.0)]))
        weights = rng.normal(size=shape)
        weights[rng.uniform(size=shape) < 0.3] = -0.0  # upstream zeros of either sign
        weights[rng.uniform(size=shape) < 0.2] = 0.0
        fused, chain = twin_parameters(rng.normal(size=shape), rng.normal(size=shape))
        assert_bit_identical(ad.add_scaled(*fused, factor), ad.add_scaled_chain(*chain, factor),
                             weights, fused, chain)

    def test_add_scaled_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(1, 3\)"):
            ad.add_scaled(ad.constant(np.ones((1, 2))), ad.constant(np.ones((1, 3))), 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_neg_log_entry_is_bit_identical_to_its_chain(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 8))
        values = rng.uniform(size=(1, t))
        values[rng.uniform(size=(1, t)) < 0.3] = 1e-20  # below the floor
        for col in range(t):
            fused, chain = twin_parameters(values)
            assert_bit_identical(ad.neg_log_entry(*fused, col, 1e-12),
                                 neg_log_entry_chain(*chain, col, 1e-12),
                                 rng.normal(size=(1, 1)), fused, chain)

    def test_neg_log_entry_gradients_match_finite_differences(self):
        row = ad.parameter(np.random.default_rng(25).uniform(0.1, 0.9, size=(1, 4)))
        for col in range(4):
            assert ad.grad_check(lambda p: ad.neg_log_entry(p[0], col, 1e-12),
                                 [row], h=1e-5) <= 1e-6

    def test_neg_log_entry_has_no_gradient_at_or_below_the_floor(self):
        for col in (0, 1):
            row = ad.parameter([[1e-20, 1e-12, 0.5]])
            out = ad.neg_log_entry(row, col, 1e-12)
            assert out.value[0, 0] == -np.log(1e-12)
            out.backward()
            assert np.array_equal(row.grad, np.zeros((1, 3)))


def assert_same_as_chain(fused, chain, weights, inputs_fused, inputs_chain):
    """The value and the gradient of every input agree with the chain's."""
    assert np.array_equal(fused.value, chain.value)
    weighted_sum(fused, weights).backward()
    weighted_sum(chain, weights).backward()
    for nf, nc in zip(inputs_fused, inputs_chain):
        assert (nf.grad is None) == (nc.grad is None)
        if nf.grad is not None:
            assert np.array_equal(nf.grad, nc.grad)


def twin_inputs(arrays, trainable):
    """Two independent node sets over copies of `arrays`; entry i is a
    parameter where trainable[i], else a constant."""
    def nodes():
        return [ad.parameter(a.copy()) if t else ad.constant(a.copy())
                for a, t in zip(arrays, trainable)]
    return nodes(), nodes()


def signed_bias(products, rng):
    """A bias row that makes the first column of products + bias negative
    and the last positive, so a sigmoid sees logits of both signs."""
    bias = rng.normal(size=(1, products.shape[1]))
    bias[0, 0] = -products[:, 0].max() - 1.0
    bias[0, -1] = -products[:, -1].min() + 1.0
    return bias


class TestFusedModuleOps:
    """Each fused op of a model module against the chain it replaces."""

    @pytest.mark.parametrize("inputs_trainable", [True, False])
    @pytest.mark.parametrize("scale", [0.5, 4.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_gate_blend_equals_its_chain(self, seed, scale, inputs_trainable):
        rng = np.random.default_rng(200 + seed)
        rows, d = int(rng.integers(1, 9)), int(rng.integers(2, 9))
        arrays = [rng.normal(size=(rows, d)), rng.normal(size=(rows, d)),
                  rng.normal(scale=scale, size=(2 * d, d)), None,
                  rng.normal(size=(d, d)), rng.normal(size=(1, d)),
                  rng.normal(size=(d, d)), rng.normal(size=(1, d))]
        arrays[3] = signed_bias(np.concatenate(arrays[:2], axis=1) @ arrays[2], rng)
        trainable = [inputs_trainable] * 2 + [True] * 6
        fused, chain = twin_inputs(arrays, trainable)
        assert_same_as_chain(ad.gate_blend(*fused), ad.gate_blend_chain(*chain),
                             rng.normal(size=(rows, d)), fused, chain)

    @pytest.mark.parametrize("op", [ad.gate_blend, ad.gate_blend_chain])
    def test_gate_blend_raises_the_chains_shape_errors(self, op):
        d = 3

        def call(pooled_rows, w_patch_rows=d):
            params = [ad.parameter(np.ones(s)) for s in
                      ((2 * d, d), (1, d), (w_patch_rows, d), (1, d), (d, d), (1, d))]
            return op(ad.constant(np.ones((pooled_rows, d))), ad.constant(np.ones((2, d))),
                      *params)

        with pytest.raises(ShapeError, match="row mismatch"):
            call(pooled_rows=3)
        with pytest.raises(ShapeError, match="linear"):
            call(pooled_rows=2, w_patch_rows=d + 1)

    @pytest.mark.parametrize("bag_trainable", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_gated_attention_equals_its_chain(self, seed, bag_trainable):
        rng = np.random.default_rng(300 + seed)
        m, d, da = (int(v) for v in rng.integers(2, 9, size=3))
        arrays = [rng.normal(size=(m, d)), rng.normal(size=(d, da)),
                  rng.normal(scale=2.0, size=(d, da)), rng.normal(size=(da, 1))]
        arrays[2][:, 1] = -arrays[2][:, 0]  # sigmoid logits of both signs
        fused, chain = twin_inputs(arrays, [bag_trainable, True, True, True])
        # the bag's gradient sums three terms, which must arrive in the chain's order
        assert_same_as_chain(ad.gated_attention(*fused), ad.gated_attention_chain(*chain),
                             rng.normal(size=(1, d)), fused, chain)

    @pytest.mark.parametrize("op", [ad.gated_attention, ad.gated_attention_chain])
    def test_gated_attention_raises_the_chains_errors(self, op):
        bag = ad.constant(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="matmul"):
            op(bag, ad.parameter(np.ones((5, 2))), ad.parameter(np.ones((4, 2))),
               ad.parameter(np.ones((2, 1))))
        with pytest.raises(ShapeError, match="shape mismatch"):
            op(bag, ad.parameter(np.ones((4, 2))), ad.parameter(np.ones((4, 3))),
               ad.parameter(np.ones((2, 1))))

    @pytest.mark.parametrize("x_trainable", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_mean_logistic_equals_its_chain(self, seed, x_trainable):
        rng = np.random.default_rng(400 + seed)
        m, d, t = (int(v) for v in rng.integers(2, 9, size=3))
        arrays = [rng.normal(size=(m, d)), rng.normal(scale=3.0, size=(d, t)), None]
        arrays[2] = signed_bias(arrays[0].mean(axis=0, keepdims=True) @ arrays[1], rng)
        fused, chain = twin_inputs(arrays, [x_trainable, True, True])
        assert_same_as_chain(ad.mean_logistic(*fused), ad.mean_logistic_chain(*chain),
                             rng.normal(size=(1, t)), fused, chain)

    @pytest.mark.parametrize("op", [ad.mean_logistic, ad.mean_logistic_chain])
    def test_mean_logistic_raises_the_chains_errors(self, op):
        weight, bias = ad.parameter(np.ones((3, 2))), ad.parameter(np.ones((1, 2)))
        with pytest.raises(EmptyInputError):
            op(ad.constant(np.zeros((0, 3))), weight, bias)
        with pytest.raises(ShapeError, match="linear"):
            op(ad.constant(np.ones((2, 4))), weight, bias)

    def test_prefixed_mean_logistic_equals_the_chain_over_the_whole_stack(self):
        # constant rows P stacked above x reach the op as their row sum
        rng = np.random.default_rng(900)
        for case in range(1200):
            d = (2, 8, 32, 64)[case % 4]
            n, m, t = int(rng.integers(1, 1301)), int(rng.integers(1, 9)), int(rng.integers(2, 6))
            bag = rng.normal(size=(n, d))
            arrays = [rng.normal(size=(m, d)), rng.normal(scale=3.0, size=(d, t)), None]
            arrays[2] = signed_bias(np.vstack([bag, arrays[0]]).mean(axis=0, keepdims=True)
                                    @ arrays[1], rng)
            fused, chain = twin_inputs(arrays, [True, True, True])
            prefix = (np.add.reduce(bag, axis=0, keepdims=True), n)
            assert_same_as_chain(ad.mean_logistic(*fused, prefix),
                                 ad.mean_logistic_chain(ad.concat_rows(ad.constant(bag), chain[0]),
                                                        *chain[1:]),
                                 rng.normal(size=(1, t)), fused, chain)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefixed_mean_logistic_equals_its_chain(self, seed):
        rng = np.random.default_rng(920 + seed)
        n, m, d, t = (int(v) for v in rng.integers(1, 9, size=4))
        arrays = [rng.normal(size=(m, d)), rng.normal(scale=3.0, size=(d, t)),
                  rng.normal(size=(1, t))]
        prefix = (rng.normal(size=(1, d)), n)
        fused, chain = twin_inputs(arrays, [True, True, True])
        assert_same_as_chain(ad.mean_logistic(*fused, prefix),
                             ad.mean_logistic_chain(*chain, prefix),
                             rng.normal(size=(1, t)), fused, chain)

    def test_prefix_of_one_channel_is_the_in_order_sum(self):
        # np.add.reduce adds a single column pairwise; the head prefix is the
        # in-order sum there, so under a few tail rows the pooled row is the
        # in-order running sum of the whole stack
        rng = np.random.default_rng(950)
        bag, x = rng.normal(size=(1300, 1)), rng.normal(size=(3, 1))
        weight, bias = ad.constant(rng.normal(size=(1, 2))), ad.constant(rng.normal(size=(1, 2)))
        stack = np.vstack([bag, x])
        in_order = np.add.accumulate(stack, axis=0)[-1:]
        assert not np.array_equal(in_order, np.add.reduce(stack, axis=0, keepdims=True))
        out = ad.mean_logistic(ad.constant(x), weight, bias, (row_sum(bag), 1300))
        expected = ad.sigmoid(ad.linear(ad.constant(in_order / 1303), weight, bias))
        assert np.array_equal(out.value, expected.value)

    def test_one_channel_from_eight_rows_is_the_in_order_sum(self):
        # np.add.reduce adds one column pairwise from 8 rows on; the head adds
        # its rows in order, with or without a prefix. The weight gradient,
        # the column means times the logit gradient, shows the last bit
        rng = np.random.default_rng(974)
        weights, bias = rng.normal(size=(1, 2)), ad.constant(rng.normal(size=(1, 2)))
        bag, x = rng.normal(size=(40, 1)), rng.normal(size=(10, 1))
        for rows, prefix in ((x, None), (np.vstack([bag, x]), (row_sum(bag), 40))):
            means = np.add.accumulate(rows, axis=0)[-1:] / len(rows)
            stacked = rows if prefix is None else np.vstack([prefix[0], x])
            assert not np.array_equal(means * len(rows),
                                      np.add.reduce(stacked, axis=0, keepdims=True))
            weight = ad.parameter(weights)
            out = ad.mean_logistic(ad.constant(x), weight, bias, prefix)
            out.backward()
            expected = ad.sigmoid(ad.linear(ad.constant(means), ad.constant(weights), bias))
            assert np.array_equal(out.value, expected.value)
            value = expected.value
            assert np.array_equal(weight.grad, means.T @ (value * (1.0 - value)))

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_alone_equals_the_chain_on_its_mean_row(self, seed):
        # with no token rows the head reads the prefix's means, as the chain
        # reads a one-row constant of them
        rng = np.random.default_rng(940 + seed)
        n, d, t = (int(v) for v in rng.integers(1, 9, size=3))
        row_sum = rng.normal(scale=float(n), size=(1, d))
        arrays = [rng.normal(scale=3.0, size=(d, t)), None]
        arrays[1] = signed_bias(row_sum / n @ arrays[0], rng)
        fused, chain = twin_inputs(arrays, [True, True])
        assert_same_as_chain(ad.mean_logistic(None, *fused, (row_sum, n)),
                             ad.mean_logistic_chain(ad.constant(row_sum / n), *chain),
                             rng.normal(size=(1, t)), fused, chain)

    def test_no_token_rows_and_no_prefix_rejected(self):
        weight, bias = ad.parameter(np.ones((3, 2))), ad.parameter(np.ones((1, 2)))
        with pytest.raises(ShapeError, match="prefix"):
            ad.mean_logistic(None, weight, bias)

    @pytest.mark.parametrize("op", [ad.mean_logistic, ad.mean_logistic_chain])
    def test_prefix_of_another_width_rejected(self, op):
        weight, bias = ad.parameter(np.ones((3, 2))), ad.parameter(np.ones((1, 2)))
        with pytest.raises(ShapeError):
            op(ad.constant(np.ones((2, 3))), weight, bias, (np.ones((1, 4)), 5))

    def test_prefixed_mean_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(960)
        params = [ad.parameter(rng.normal(size=s)) for s in [(3, 4), (4, 2), (1, 2)]]
        prefix = (rng.normal(size=(1, 4)), 7)
        weights = rng.normal(size=(1, 2))
        assert ad.grad_check(lambda p: weighted_sum(ad.mean_logistic(*p, prefix), weights),
                             params, h=1e-5) <= 1e-6

    @pytest.mark.parametrize("censor", [0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_neg_log_sum_equals_its_chain_on_a_survival_row(self, seed, censor):
        # h feeds the loss directly and through s = cumprod(1 - h), as in
        # training, so its gradient sums the loss's term and the curve's
        rng = np.random.default_rng(500 + seed)
        t = int(rng.integers(1, 6))
        logits = rng.normal(scale=3.0, size=(1, t))
        logits[0, 0] = -abs(logits[0, 0])
        logits[0, -1] = 40.0 if seed == 3 else abs(logits[0, -1])  # S below the floor
        for time_bin in range(1, t + 1):
            fused_p, chain_p = twin_inputs([logits], [True])

            def loss(op, p):
                h = ad.sigmoid(p[0])
                s = ad.cumprod_complement(h)
                if censor == 1:
                    entries = [(s, time_bin - 1)]
                else:
                    entries = [(h, time_bin - 1)] + ([(s, time_bin - 2)] if time_bin > 1 else [])
                return op(entries, 1e-12)

            assert_same_as_chain(loss(ad.neg_log_sum, fused_p), loss(ad.neg_log_sum_chain, chain_p),
                                 rng.normal(size=(1, 1)), fused_p, chain_p)

    @pytest.mark.parametrize("op", [ad.neg_log_sum, ad.neg_log_sum_chain])
    def test_neg_log_sum_raises_the_chains_shape_error(self, op):
        row = ad.parameter(np.full((1, 3), 0.5))
        with pytest.raises(ShapeError, match="column 3"):
            op([(row, 0), (row, 3)], 1e-12)
        with pytest.raises(ShapeError):
            op([(ad.parameter(np.full((2, 3), 0.5)), 0)], 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_normalized_col_sum_equals_its_chain(self, seed):
        rng = np.random.default_rng(600 + seed)
        m, d = (int(v) for v in rng.integers(1, 12, size=2))
        fused, chain = twin_inputs([rng.normal(size=(m, d))], [True])
        assert_same_as_chain(ad.normalized_col_sum(*fused),
                             ad.normalized_col_sum_chain(*chain),
                             rng.normal(size=(1, d)), fused, chain)

    @pytest.mark.parametrize("op", [ad.normalized_col_sum, ad.normalized_col_sum_chain])
    def test_normalized_col_sum_raises_the_chains_errors(self, op):
        with pytest.raises(DegenerateInputError):
            op(ad.constant([[1.0, -2.0], [-1.0, 2.0]]))
        with pytest.raises(EmptyInputError):
            op(ad.constant(np.zeros((0, 2))))

    def test_fused_module_ops_match_finite_differences(self):
        rng = np.random.default_rng(700)
        d = 3

        def check(op, shapes, out_shape):
            params = [ad.parameter(rng.normal(size=s)) for s in shapes]
            weights = rng.normal(size=out_shape)
            assert ad.grad_check(lambda p: weighted_sum(op(*p), weights),
                                 params, h=1e-5) <= 1e-6, op.__name__

        check(ad.gate_blend, [(2, d), (2, d), (2 * d, d), (1, d), (d, d), (1, d),
                              (d, d), (1, d)], (2, d))
        check(ad.gated_attention, [(4, d), (d, 2), (d, 2), (2, 1)], (1, d))
        check(ad.mean_logistic, [(4, d), (d, 2), (1, 2)], (1, 2))
        check(ad.normalized_col_sum, [(4, d)], (1, d))
        h = ad.parameter(rng.uniform(0.1, 0.9, size=(1, 3)))
        s = ad.parameter(rng.uniform(0.1, 0.9, size=(1, 3)))
        assert ad.grad_check(lambda p: ad.neg_log_sum([(p[0], 2), (p[1], 1)], 1e-12),
                             [h, s], h=1e-5) <= 1e-6
