import numpy as np
import pytest

import ad_chain as ad
from promptsurv.errors import DataValidationError, ShapeError
from promptsurv.autodiff import _row_sum as row_sum
from promptsurv.fusion import gate_fuse, pool_to_regions


# the gate's parameter shapes in gate_blend's order: w_gate, b_gate, w_patch,
# b_patch, w_region, b_region
def gate_shapes(d):
    return [(2 * d, d), (1, d), (d, d), (1, d), (d, d), (1, d)]


def make_gate(d, fill=0.0):
    return tuple(ad.parameter(np.full(shape, fill)) for shape in gate_shapes(d))


def random_gate(d, rng):
    return tuple(ad.parameter(rng.normal(scale=0.5, size=shape))
                 for shape in gate_shapes(d))


class TestPoolToRegions:
    def test_single_child_sums(self):
        tokens = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        parents = np.array([0, 0, 1])
        selected = np.array([0, 2])
        pooled = pool_to_regions(tokens[selected], selected, parents, 2)
        assert np.array_equal(pooled, [[1.0, 2.0], [5.0, 6.0]])

    def test_region_without_selected_children_is_zero(self):
        tokens = np.array([[1.0, 1.0], [2.0, 2.0]])
        parents = np.array([0, 1])
        pooled = pool_to_regions(tokens[[0]], np.array([0]), parents, 2)
        assert np.array_equal(pooled[1], [0.0, 0.0])

    def test_mass_conservation_oracle(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(24, 5))
        parents = np.repeat(np.arange(4), 6)
        selected = np.sort(rng.choice(24, size=13, replace=False))
        pooled = pool_to_regions(tokens[selected], selected, parents, 4)
        assert pooled.sum(axis=0) == pytest.approx(tokens[selected].sum(axis=0),
                                                   abs=1e-12)

    def test_linearity_over_disjoint_selections(self):
        rng = np.random.default_rng(3)
        tokens = rng.normal(size=(12, 3))
        parents = np.repeat(np.arange(3), 4)
        sel_a = np.array([0, 4, 8])
        sel_b = np.array([1, 5, 9])
        both = np.sort(np.concatenate([sel_a, sel_b]))
        combined = pool_to_regions(tokens[both], both, parents, 3)
        separate = (pool_to_regions(tokens[sel_a], sel_a, parents, 3)
                    + pool_to_regions(tokens[sel_b], sel_b, parents, 3))
        assert combined == pytest.approx(separate, abs=1e-12)

    def test_parent_index_out_of_range(self):
        with pytest.raises(DataValidationError, match="parent"):
            pool_to_regions(np.ones((1, 2)), np.array([0]), np.array([5]), 2)

    def test_negative_parent_index_rejected(self):
        with pytest.raises(DataValidationError, match="parent"):
            pool_to_regions(np.ones((2, 2)), np.array([0, 1]), np.array([0, -1]), 2)

    def test_negative_selected_index_rejected(self):
        with pytest.raises(DataValidationError, match="selected indices -1..0"):
            pool_to_regions(np.ones((2, 2)), np.array([-1, 0]), np.array([0, 1]), 2)

    def test_one_token_row_per_selected_index(self):
        with pytest.raises(ShapeError, match="2 selected indices"):
            pool_to_regions(np.ones((3, 2)), np.array([0, 1]), np.array([0, 1]), 2)

    def test_matches_an_add_at_oracle_bit_for_bit(self):
        # unsorted parent maps, empty regions, a single channel (which a
        # pairwise reduction would add in another order) and rows of -0.0
        rng = np.random.default_rng(12)
        for _ in range(300):
            m, d = int(rng.integers(1, 200)), int(rng.choice([1, 2, 3, 16]))
            n_regions = int(rng.integers(1, 10))
            tokens = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            tokens[rng.random((m, d)) < 0.1] = -0.0
            parents = rng.integers(0, n_regions, size=m)
            selected = np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
            expected = np.zeros((n_regions, d))
            np.add.at(expected, parents[selected], tokens[selected])
            pooled = pool_to_regions(tokens[selected], selected, parents, n_regions)
            assert np.array_equal(pooled, expected)
            assert np.array_equal(np.signbit(pooled), np.signbit(expected))


class TestRowSum:
    @pytest.mark.parametrize("d", [1, 2, 3, 32])
    def test_adds_the_rows_in_order(self, d):
        # one column too, which np.add.reduce would add pairwise
        rng = np.random.default_rng(d)
        for m in (1, 7, 8, 9, 300, 1300):
            rows = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            expected = rows[0].copy()
            for row in rows[1:]:
                expected = expected + row
            out = row_sum(rows)
            assert out.shape == (1, d)
            assert np.array_equal(out[0], expected)


class TestGateFuse:
    def test_all_zero_parameters_give_zero_output(self):
        d = 4
        rng = np.random.default_rng(0)
        pooled = ad.constant(rng.normal(size=(3, d)))
        regions = ad.constant(rng.normal(size=(3, d)))
        out = gate_fuse(pooled, regions, make_gate(d))
        # gate = sigmoid(0) = 0.5 everywhere, both tanh streams are zero
        assert np.array_equal(out.value, np.zeros((3, d)))

    def test_saturated_gate_selects_patch_stream(self):
        d = 3
        rng = np.random.default_rng(1)
        pooled_values = rng.normal(size=(2, d))
        pooled = ad.constant(pooled_values)
        regions = ad.constant(rng.normal(size=(2, d)))
        _, _, w_patch, b_patch, w_region, b_region = random_gate(d, np.random.default_rng(2))
        gate = (ad.parameter(np.zeros((2 * d, d))), ad.parameter(np.full((1, d), 30.0)),
                w_patch, b_patch, w_region, b_region)
        out = gate_fuse(pooled, regions, gate)
        expected = ad.linear(ad.constant(pooled_values), w_patch, b_patch)
        assert out.value == pytest.approx(np.tanh(expected.value), abs=1e-12)

    def test_saturated_negative_gate_selects_region_stream(self):
        d = 3
        rng = np.random.default_rng(4)
        region_values = rng.normal(size=(2, d))
        pooled = ad.constant(rng.normal(size=(2, d)))
        regions = ad.constant(region_values)
        _, _, w_patch, b_patch, w_region, b_region = random_gate(d, np.random.default_rng(5))
        gate = (ad.parameter(np.zeros((2 * d, d))), ad.parameter(np.full((1, d), -30.0)),
                w_patch, b_patch, w_region, b_region)
        out = gate_fuse(pooled, regions, gate)
        expected = ad.linear(ad.constant(region_values), w_region, b_region)
        assert out.value == pytest.approx(np.tanh(expected.value), abs=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        d = 6
        rng = np.random.default_rng(6)
        out = gate_fuse(ad.constant(rng.normal(size=(5, d)) * 3),
                        ad.constant(rng.normal(size=(5, d)) * 3),
                        random_gate(d, rng))
        assert np.all(out.value > -1.0) and np.all(out.value < 1.0)

    def test_gradients_match_finite_differences(self):
        d = 3
        rng = np.random.default_rng(7)
        pooled = rng.normal(size=(2, d))
        regions = rng.normal(size=(2, d))
        gate = random_gate(d, rng)

        def f(nodes_in):
            return ad.sum_all(gate_fuse(ad.constant(pooled), ad.constant(regions),
                                        gate))

        err = ad.grad_check(f, list(gate), h=1e-5)
        assert err <= 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gate_fuse(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 3))),
                      make_gate(3))
