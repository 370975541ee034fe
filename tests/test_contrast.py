import math
from collections import deque

import numpy as np
import pytest

import ad_chain as ad
from promptsurv.contrast import MemoryQueue, make_prototype, mutual_contrastive_loss
from promptsurv.errors import DegenerateInputError, ShapeError


def unit(vec):
    arr = np.asarray(vec, dtype=np.float64)
    return arr / np.linalg.norm(arr)


def pair(patch, region):
    """One queue entry: the unit (patch, region) prototype pair, 2 x d."""
    return np.stack([unit(patch), unit(region)])


class TestPrototype:
    def test_single_token_is_normalized(self):
        v = np.array([[3.0, 4.0]])
        node = ad.normalized_col_sum(ad.constant(v))
        assert node.value == pytest.approx(np.array([[0.6, 0.8]]), abs=1e-15)

    def test_opposite_tokens_are_degenerate(self):
        tokens = np.array([[1.0, -2.0], [-1.0, 2.0]])
        with pytest.raises(DegenerateInputError):
            ad.normalized_col_sum(ad.constant(tokens))

    def test_unnormalized_sum_equals_column_sums_oracle(self):
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(7, 5))
        node = ad.normalized_col_sum(ad.constant(tokens))
        oracle = tokens.sum(axis=0)
        oracle /= np.linalg.norm(oracle)
        assert node.value[0] == pytest.approx(oracle, abs=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        node = ad.normalized_col_sum(ad.constant(rng.normal(size=(4, 6))))
        assert np.linalg.norm(node.value) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_gradient(self):
        rng = np.random.default_rng(2)
        tokens = ad.parameter(rng.normal(size=(3, 4)))
        weights = rng.normal(size=(1, 4))

        def f(params):
            return ad.sum_all(ad.mul(ad.normalized_col_sum(params[0]),
                                     ad.constant(weights)))

        assert ad.grad_check(f, [tokens], h=1e-5) <= 1e-6


class TestMemoryQueue:
    def test_push_into_empty(self):
        q = MemoryQueue(20)
        q.push("x", unit([1.0, 0.0]))
        assert len(q) == 1

    def test_push_copies_the_vector(self):
        q = MemoryQueue(3)
        vec = unit([1.0, 0.0])
        q.push("p1", vec)
        vec[0] = 99.0
        ((pid, stored),) = q.entries()
        assert pid == "p1"
        assert stored[0] == 1.0  # the queue holds its own copy
        stored[0] = 99.0
        assert q.entries()[0][1][0] == 1.0  # and entries() hands out copies

    def test_capacity_is_b_minus_one(self):
        q = MemoryQueue(20)
        for i in range(19):
            q.push(f"p{i}", unit([1.0, float(i)]))
        assert len(q) == 19
        q.push("p19", unit([1.0, 99.0]))
        assert len(q) == 19
        assert [pid for pid, _ in q.entries()][0] == "p1"  # oldest evicted

    def test_fifo_order_matches_deque_oracle(self):
        rng = np.random.default_rng(3)
        q = MemoryQueue(8)
        oracle = deque(maxlen=7)
        for i in range(100):
            q.push(f"p{i}", unit(rng.normal(size=4)))
            oracle.append(f"p{i}")
            assert [pid for pid, _ in q.entries()] == list(oracle)

    def test_negatives_exclude_patient(self):
        q = MemoryQueue(5)
        q.push("a", unit([1.0, 0.0]))
        q.push("b", unit([0.0, 1.0]))
        q.push("a", unit([1.0, 1.0]))
        negs = q.negatives_for("a")
        assert negs.shape == (1, 2)
        assert negs[0] == pytest.approx(np.array([0.0, 1.0]))

    def test_pairs_queue_as_one_entry(self):
        q = MemoryQueue(5)
        q.push("a", pair([1.0, 0.0], [0.0, 1.0]))
        q.push("b", pair([0.0, 1.0], [1.0, 1.0]))
        negs = q.negatives_for("a")
        assert negs.shape == (1, 2, 2)
        assert np.array_equal(negs[0], pair([0.0, 1.0], [1.0, 1.0]))

    def test_minimum_queue_length(self):
        with pytest.raises(DegenerateInputError):
            MemoryQueue(1)


class TestContrastiveLoss:
    def test_equal_similarities_give_ln2(self):
        anchor = ad.constant([[1.0, 0.0]])
        positive = ad.constant([[1.0, 0.0]])
        negatives = np.array([[1.0, 0.0]])  # same dot as the positive
        loss = ad.contrastive(anchor, positive, negatives, 1.0)
        assert loss.value[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_value_opposite_negative(self):
        anchor = ad.constant([[1.0, 0.0]])
        positive = ad.constant([[1.0, 0.0]])     # dot +1
        negatives = np.array([[-1.0, 0.0]])      # dot -1
        loss = ad.contrastive(anchor, positive, negatives, 1.0)
        expected = -math.log(math.e / (math.e + math.exp(-1.0)))
        assert loss.value[0, 0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1269, abs=1e-4)

    def test_k_equal_negatives_give_ln_1_plus_k(self):
        anchor = ad.constant([[0.0, 1.0]])
        positive = ad.constant([[0.0, 1.0]])
        for k in (1, 3, 7):
            negatives = np.tile([0.0, 1.0], (k, 1))
            loss = ad.contrastive(anchor, positive, negatives, 1.0)
            assert loss.value[0, 0] == pytest.approx(math.log(1.0 + k), abs=1e-12)

    def test_loss_nonnegative_and_decreasing_in_pos_similarity(self):
        rng = np.random.default_rng(4)
        negatives = np.stack([unit(rng.normal(size=3)) for _ in range(5)])
        anchor_v = unit(np.array([1.0, 0.0, 0.0]))
        previous = np.inf
        for angle in (0.9 * np.pi, 0.5 * np.pi, 0.1 * np.pi, 0.0):
            pos_v = np.array([np.cos(angle), np.sin(angle), 0.0])
            loss = ad.contrastive(ad.constant([anchor_v]), ad.constant([pos_v]),
                                  negatives, 1.0)
            assert loss.value[0, 0] >= 0.0
            assert loss.value[0, 0] < previous
            previous = loss.value[0, 0]

    def test_gradient_reaches_anchor_and_positive_only(self):
        rng = np.random.default_rng(5)
        anchor = ad.parameter([unit(rng.normal(size=4))])
        positive = ad.parameter([unit(rng.normal(size=4))])
        negatives = np.stack([unit(rng.normal(size=4)) for _ in range(3)])
        stored = negatives.copy()
        loss = ad.contrastive(anchor, positive, negatives, 1.0)
        loss.backward()
        assert anchor.grad is not None and np.any(anchor.grad != 0.0)
        assert positive.grad is not None and np.any(positive.grad != 0.0)
        assert negatives.tobytes() == stored.tobytes()  # untouched history


class TestMutualContrastiveLoss:
    def test_zero_when_both_queues_empty(self):
        f_p = ad.constant([[1.0, 0.0]])
        f_r = ad.constant([[0.0, 1.0]])
        # cold start: no term at all, which total_loss drops
        assert mutual_contrastive_loss(f_p, f_r, MemoryQueue(5), "p0") is None
        q = MemoryQueue(5)
        q.push("p0", pair([1.0, 1.0], [1.0, -1.0]))
        # the patient's own queued prototypes are no negatives
        assert mutual_contrastive_loss(f_p, f_r, q, "p0") is None

    def test_symmetric_setup_doubles_single_direction(self):
        v = unit([1.0, 2.0])
        f_p = ad.constant([v])
        f_r = ad.constant([v])
        neg = unit([2.0, -1.0])
        q = MemoryQueue(5)
        q.push("other", pair(neg, neg))
        both = mutual_contrastive_loss(f_p, f_r, q, "p0")
        single = ad.contrastive(f_p, f_r, neg[None, :], 1.0)
        assert both.value[0, 0] == pytest.approx(2.0 * single.value[0, 0], abs=1e-12)

    def test_one_node_is_the_sum_of_two_reference_directions(self):
        rng = np.random.default_rng(8)
        q = MemoryQueue(5)
        for i in range(3):
            q.push(f"n{i}", pair(rng.normal(size=4), rng.normal(size=4)))
        neg = q.negatives_for("p0")
        values = unit(rng.normal(size=4)), unit(rng.normal(size=4))
        lib_p, lib_r = (ad.parameter([v]) for v in values)
        ref_p, ref_r = (ad.parameter([v]) for v in values)
        loss = mutual_contrastive_loss(lib_p, lib_r, q, "p0", temperature=0.5)
        ref = ad.add(ad.contrastive(ref_p, ref_r, neg[:, 1], 0.5),
                     ad.contrastive(ref_r, ref_p, neg[:, 0], 0.5))
        assert loss.value.tobytes() == ref.value.tobytes()
        loss.backward()
        ref.backward()
        assert lib_p.grad.tobytes() == ref_p.grad.tobytes()
        assert lib_r.grad.tobytes() == ref_r.grad.tobytes()

    def test_random_instance_matches_compositional_oracle(self):
        rng = np.random.default_rng(6)
        f_p_v = unit(rng.normal(size=5))
        f_r_v = unit(rng.normal(size=5))
        q = MemoryQueue(6)
        patches, regions = [], []
        for i in range(4):
            patches.append(unit(rng.normal(size=5)))
            regions.append(unit(rng.normal(size=5)))
            q.push(f"n{i}", np.stack([patches[-1], regions[-1]]))
        q.push("p0", pair(f_p_v, f_r_v))  # the patient's own pair is no negative
        total = mutual_contrastive_loss(ad.constant([f_p_v]), ad.constant([f_r_v]), q, "p0")

        def direction(anchor, positive, negatives):
            pos = float(anchor @ positive)
            negs = negatives @ anchor
            return -math.log(math.exp(pos) / (math.exp(pos) + np.exp(negs).sum()))

        # the patch anchor meets the queued region prototypes, and vice versa
        oracle = (direction(f_p_v, f_r_v, np.stack(regions))
                  + direction(f_r_v, f_p_v, np.stack(patches)))
        assert total.value[0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_no_gradient_reaches_queue_contents(self):
        rng = np.random.default_rng(7)
        tokens_p = ad.parameter(rng.normal(size=(3, 4)))
        tokens_r = ad.parameter(rng.normal(size=(3, 4)))
        f_p = make_prototype(tokens_p)
        f_r = make_prototype(tokens_r)
        q = MemoryQueue(4)
        stored = []
        for i in range(2):
            stored.append(pair(rng.normal(size=4), rng.normal(size=4)))
            q.push(f"n{i}", stored[-1].copy())
        loss = mutual_contrastive_loss(f_p, f_r, q, "p0")
        loss.backward()
        assert [pid for pid, _ in q.entries()] == ["n0", "n1"]
        for (_, entry), original in zip(q.entries(), stored):
            assert entry.tobytes() == original.tobytes()
        assert tokens_p.grad is not None and tokens_r.grad is not None


class TestQueueStorage:
    def test_negatives_match_a_deque_oracle(self):
        rng = np.random.default_rng(9)
        q = MemoryQueue(6)
        oracle = deque(maxlen=5)
        for i in range(40):
            vec = unit(rng.normal(size=4))
            q.push(f"p{i % 7}", vec)
            oracle.append((f"p{i % 7}", vec))
            for pid in ("p0", "p3", "nobody"):
                vecs = [v for owner, v in oracle if owner != pid]
                expected = np.stack(vecs) if vecs else np.empty((0, 4))
                assert np.array_equal(q.negatives_for(pid), expected)

    def test_a_push_after_the_loss_leaves_its_gradient_alone(self):
        # the loss keeps its negatives until the backward pass; a push in
        # between must not reach them, even when the queue's only row is
        # overwritten
        rng = np.random.default_rng(10)
        anchor_v, positive_v, other, mine = (unit(rng.normal(size=4)) for _ in range(4))

        def gradients(copy_negatives):
            q = MemoryQueue(2)
            q.push("other", other)
            negatives = q.negatives_for("me")
            if copy_negatives:
                negatives = negatives.copy()
            anchor, positive = ad.parameter([anchor_v]), ad.parameter([positive_v])
            loss = ad.contrastive(anchor, positive, negatives, 1.0)
            q.push("me", mine)
            loss.backward()
            return anchor.grad, positive.grad

        for live, fresh in zip(gradients(False), gradients(True)):
            assert np.array_equal(live, fresh)

    def test_pushing_another_dimension_is_a_shape_error(self):
        q = MemoryQueue(3)
        q.push("x", unit([1.0, 0.0]))
        with pytest.raises(ShapeError):
            q.push("y", unit([1.0, 0.0, 0.0]))
        pairs = MemoryQueue(3)
        pairs.push("x", pair([1.0, 0.0], [0.0, 1.0]))
        with pytest.raises(ShapeError):
            pairs.push("y", pair([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
