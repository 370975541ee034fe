import numpy as np
import pytest

from promptsurv import autodiff as ad
from promptsurv.errors import DegenerateInputError, DomainError, EmptyInputError, ShapeError


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
