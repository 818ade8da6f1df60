"""Tests for classifier handles, datasets, and pair statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelprint as mp
from modelprint.core import Access
from modelprint.errors import AccessInsufficient, BadClass, CorruptDataset, EmptyEvaluationSet
from modelprint.tinylearn import LinearClassifier

from conftest import indexed_classifier, make_indexed_dataset


def grid_points():
    return np.array([[x1, x2] for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)])


class TestAccuracy:
    def test_perfect_classifier(self, quick_task):
        _, test = quick_task
        c_model = test.as_lookup_classifier()
        assert mp.accuracy(c_model, test) == 1.0

    def test_constant_on_balanced_labels(self):
        data = make_indexed_dataset([1, 1, 2, 2], num_classes=2)
        const = mp.FunctionClassifier(lambda X: np.ones(len(X), np.int64), 2, 1)
        assert mp.accuracy(const, data) == 0.5

    def test_linear_model_on_grid_matches_enumeration(self):
        # 2-class linear model on the 3x3 grid; expectation enumerated by hand
        pts = grid_points()
        model = LinearClassifier(W=[[1.0, 0.0], [-1.0, 0.0]])
        concept = np.array([1 if x1 + x2 > 0 else 2 for x1, x2 in pts], np.int64)
        data = mp.LabeledDataset(pts, concept, 2)

        expected_hits = 0
        for (x1, x2), c in zip(pts, concept):
            predicted = 1 if x1 > 0 else (1 if x1 == 0 else 2)  # argmax tie -> label 1
            expected_hits += predicted == c
        assert mp.accuracy(model, data) == expected_hits / 9

    def test_empty_dataset_rejected(self):
        data = mp.LabeledDataset(np.empty((0, 1)), [], 2)
        h = indexed_classifier([1], 2)
        with pytest.raises(EmptyEvaluationSet):
            mp.accuracy(h, data)


class TestHammingDistance:
    def test_identical_models(self, quick_model, quick_task):
        _, test = quick_task
        assert mp.hamming_distance(quick_model, quick_model, test) == 0.0

    def test_total_disagreement(self):
        data = make_indexed_dataset([1, 2, 3, 1, 2], num_classes=3)
        h = indexed_classifier([1, 2, 3, 1, 2], 3)
        g = mp.FunctionClassifier(
            lambda X: h.predict(X) % 3 + 1, 3, 1, identity="shifted"
        )
        assert mp.hamming_distance(h, g, data) == 1.0

    def test_trained_pair_matches_per_point_count(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        count = 0
        for x in test.points:
            count += quick_model.label(x) != quick_model_b.label(x)
        assert mp.hamming_distance(quick_model, quick_model_b, test) == count / len(test)

    def test_symmetry(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        assert mp.hamming_distance(quick_model, quick_model_b, test) == mp.hamming_distance(
            quick_model_b, quick_model, test
        )

    def test_accuracy_plus_distance_to_concept_is_one(self, quick_model, quick_task):
        _, test = quick_task
        c_model = test.as_lookup_classifier()
        assert mp.accuracy(quick_model, test) + mp.hamming_distance(
            quick_model, c_model, test
        ) == 1.0


class TestConditionedHamming:
    def test_identical_models_give_zero(self):
        data = make_indexed_dataset([1, 1, 1], num_classes=2)
        h = indexed_classifier([2, 1, 1], 2)  # one error
        assert mp.conditioned_hamming(h, h, data) == 0.0

    def test_perfect_suspect_gives_one(self):
        data = make_indexed_dataset([1, 1, 2, 2], num_classes=2)
        h = indexed_classifier([2, 1, 2, 1], 2)
        c_model = data.as_lookup_classifier()
        assert mp.conditioned_hamming(h, c_model, data) == 1.0

    def test_hand_built_three_point_enumeration(self):
        # h errs only on point 0, where g agrees with h: restricted
        # disagreement enumerates to 1/1 on the complementary construction
        data = make_indexed_dataset([1, 1, 1], num_classes=3)
        h = indexed_classifier([2, 1, 1], 3)
        g = indexed_classifier([3, 1, 1], 3)
        # full enumeration: conditioning set = {point 0}; h=2 vs g=3 disagree
        assert mp.conditioned_hamming(h, g, data) == 1.0

    def test_undefined_when_conditioning_event_empty(self):
        data = make_indexed_dataset([1, 2], num_classes=2)
        perfect = data.as_lookup_classifier()
        other = indexed_classifier([1, 1], 2)
        assert mp.conditioned_hamming(perfect, other, data) is None

    def test_asymmetric_pair_exists(self):
        data = make_indexed_dataset([1, 1, 1], num_classes=2)
        h = indexed_classifier([2, 1, 1], 2)
        g = indexed_classifier([2, 2, 1], 2)
        assert mp.conditioned_hamming(h, g, data) == 0.0
        assert mp.conditioned_hamming(g, h, data) == 0.5


class TestPairStats:
    def test_copy_of_imperfect_model(self):
        data = make_indexed_dataset([1, 1, 2, 2], num_classes=2)
        h = indexed_classifier([1, 2, 2, 2], 2)
        st_ = mp.pair_stats(h, h, data)
        assert (st_.alpha, st_.alpha_prime, st_.delta, st_.delta_c) == (0.75, 0.75, 0.0, 0.0)
        assert st_.n_eval == 4

    def test_matches_individual_operations(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        st_ = mp.pair_stats(quick_model, quick_model_b, test)
        assert st_.alpha == mp.accuracy(quick_model, test)
        assert st_.alpha_prime == mp.accuracy(quick_model_b, test)
        assert st_.delta == mp.hamming_distance(quick_model, quick_model_b, test)
        assert st_.delta_c == mp.conditioned_hamming(quick_model, quick_model_b, test)

    def test_undefined_flag_for_perfect_first_model(self):
        data = make_indexed_dataset([1, 2, 1], num_classes=2)
        st_ = mp.pair_stats(data.as_lookup_classifier(), indexed_classifier([2, 1, 2], 2), data)
        assert not st_.delta_c_defined
        assert st_.delta_c_lower_bound() is None

    @given(
        labels=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
                        min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_holds_on_random_triples(self, labels):
        # (c, h, g) label triples drawn freely; the bound must hold whenever
        # the conditioning event is nonempty
        c = [t[0] for t in labels]
        h_l = [t[1] for t in labels]
        g_l = [t[2] for t in labels]
        data = make_indexed_dataset(c, num_classes=3)
        st_ = mp.pair_stats(indexed_classifier(h_l, 3), indexed_classifier(g_l, 3), data)
        if st_.delta_c_defined:
            assert st_.delta_c >= st_.delta_c_lower_bound() - 1e-12

    def test_determinism(self, quick_model, quick_model_b, quick_task):
        _, test = quick_task
        assert mp.pair_stats(quick_model, quick_model_b, test) == mp.pair_stats(
            quick_model, quick_model_b, test
        )


class TestClassifierContract:
    def test_probits_are_distributions(self, quick_model, quick_task):
        _, test = quick_task
        P = quick_model.probits(test.points)
        assert P.shape == (len(test), 3)
        assert (P > 0).all()
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-6)

    def test_top_k_orders_by_probit_with_index_ties(self):
        model = LinearClassifier(W=np.zeros((3, 2)))  # all probits equal
        out = model.top_k(np.zeros((2, 2)), 3)
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 2, 3]])

    def test_repeated_queries_identical(self, quick_model, quick_task):
        _, test = quick_task
        first = quick_model.predict(test.points)
        np.testing.assert_array_equal(first, quick_model.predict(test.points))

    def test_access_gates(self):
        h = indexed_classifier([1, 2], 2)
        assert h.access == Access.LABELS
        with pytest.raises(AccessInsufficient):
            h.probits(np.zeros((1, 1)))
        with pytest.raises(AccessInsufficient):
            h.input_gradient(np.zeros(1), 1)

    @pytest.mark.parametrize("handle", [
        mp.ProbitPerturbation(LinearClassifier(np.eye(3, 4)), 0.1),
        mp.LookupClassifier(np.zeros((1, 4)), [2], 3),
    ], ids=["probit-noise", "lookup"])
    def test_probit_handle_without_logits_refuses_them(self, handle):
        np.testing.assert_allclose(handle.probits(np.zeros((1, 4))).sum(), 1.0)
        with pytest.raises(AccessInsufficient, match="answers no logit queries") as err:
            handle.logits(np.zeros((1, 4)))
        assert err.value.code == "access-insufficient"

    def test_bad_class_index(self, quick_model):
        with pytest.raises(BadClass):
            quick_model.input_gradient(np.zeros(4), 4)

    def test_access_order(self):
        assert Access.GRADIENTS > Access.PROBITS > Access.TOP_K > Access.LABELS


class TestLabeledDataset:
    def test_validates_label_range(self):
        with pytest.raises(ValueError):
            mp.LabeledDataset([[0.0]], [3], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mp.LabeledDataset([[0.0], [1.0]], [1], 2)

    def test_csv_round_trip_preserves_order_and_values(self, quick_task, tmp_path):
        train, test = quick_task
        combined = mp.LabeledDataset(
            np.concatenate([train.points, test.points]),
            np.concatenate([train.labels, test.labels]),
            train.num_classes,
        )
        path = tmp_path / "task.csv"
        combined.to_csv(path)
        loaded = mp.LabeledDataset.from_csv(path, num_classes=combined.num_classes)
        np.testing.assert_array_equal(loaded.points, combined.points)
        np.testing.assert_array_equal(loaded.labels, combined.labels)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "expected a trailing 'label' column"),
            (b"x_1,x_2,label,split\n0,1,2,test\n", "expected a trailing 'label' column"),
            (b"x_1,x_2,label\n0,1\n", "line 2: 2 fields, the header has 3"),
            (b"x_1,x_2,label\n0,1,2\n0,1,2,7\n", "line 3: 4 fields, the header has 3"),
            (b"x_1,x_2,label\n0,one,2\n", "could not convert string to float"),
            (b"x_1,x_2,label\n0,1,2.5\n", "invalid literal for int()"),
            (b"x_1,x_2,label\n0,1,0\n", "labels must lie in 1.."),
            (b"\x80\x81", "can't decode byte 0x80"),
        ],
        ids=["empty", "old-split-column", "short-row", "long-row", "text-coordinate",
             "fractional-label", "label-out-of-range", "not-utf-8"],
    )
    def test_unreadable_csv_is_corrupt_dataset(self, data, message, tmp_path):
        path = tmp_path / "task.csv"
        path.write_bytes(data)
        with pytest.raises(CorruptDataset, match="corrupt-dataset") as err:
            mp.LabeledDataset.from_csv(path, num_classes=2)
        assert str(path) in str(err.value) and message in str(err.value)
        assert isinstance(err.value, ValueError)
