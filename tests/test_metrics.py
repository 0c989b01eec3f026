"""Evaluation metric oracles: cosine accuracy, BLEU, ROUGE-L, two-sample test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.autodiff import ShapeError
from xmodal.data import LabeledEmbeddingSet
from xmodal.errors import FormatError
from xmodal.mappers import KernelSpec, mmd2_unbiased
from xmodal.metrics import (MetricReport, bleu, class_accuracy, read_metric_rows, rouge_l,
                            two_sample_test)


class TestCosine:
    """Class accuracy matches by cosine similarity, not by Euclidean distance."""

    def test_self_similarity(self):
        # a scaled copy of a true row has similarity 1 and beats a row that
        # is nearer in Euclidean distance
        true_set = LabeledEmbeddingSet(np.array([[1.0, 0.0], [10.0, 1.0]]), np.array([0, 1]))
        fake_set = LabeledEmbeddingSet(np.array([[20.0, 0.0]]), np.array([0]))
        assert class_accuracy(true_set, fake_set) == 100.0

    def test_orthogonal(self):
        true_set = one_hot_set([0, 1])
        assert class_accuracy(true_set, LabeledEmbeddingSet(np.array([[0.0, 3.0]]), [1])) == 100.0

    def test_antipodal(self):
        # similarity -1 ranks below the 0 of an orthogonal row
        v = np.array([0.3, -1.2, 4.0])
        u = np.array([4.0, 1.0, 0.0])
        true_set = LabeledEmbeddingSet(np.stack([v, u]), np.array([0, 1]))
        assert class_accuracy(true_set, LabeledEmbeddingSet(-v[None], [1])) == 100.0

    def test_zero_vector_is_zero(self):
        # similarity 0 with every true row: the tie goes to the lowest index
        true_set = one_hot_set([0, 1])
        assert class_accuracy(true_set, LabeledEmbeddingSet(np.zeros((1, 2)), [0])) == 100.0
        assert class_accuracy(true_set, LabeledEmbeddingSet(np.zeros((1, 2)), [1])) == 0.0

    def test_dimension_mismatch(self):
        # rows of different widths have no cosine similarity
        with pytest.raises(ShapeError):
            class_accuracy(LabeledEmbeddingSet(np.ones((2, 3)), np.array([0, 1])),
                           LabeledEmbeddingSet(np.ones((1, 4)), np.array([0])))


def one_hot_set(labels):
    n = len(labels)
    embs = np.eye(n)
    return LabeledEmbeddingSet(embs, np.asarray(labels))


class TestClassAccuracy:
    def test_self_match_is_100(self):
        rng = np.random.default_rng(0)
        s = LabeledEmbeddingSet(rng.normal(size=(10, 6)), rng.integers(0, 3, size=10))
        assert class_accuracy(s, s) == 100.0

    def test_shifted_one_hots_give_zero(self):
        # 4 classes on axis vectors; fake labels cyclically shifted by one
        true_set = one_hot_set([0, 1, 2, 3])
        fake_set = LabeledEmbeddingSet(np.eye(4), np.array([1, 2, 3, 0]))
        assert class_accuracy(true_set, fake_set) == 0.0

    def test_chance_level_under_random_rotation(self):
        # label-independent fakes hit the right class at the 1/C rate
        # (needs dim large enough that a rotation decorrelates neighbours)
        rng = np.random.default_rng(42)
        n_classes, per_class, dim = 4, 10, 32
        labels = np.repeat(np.arange(n_classes), per_class)
        accs = []
        for _ in range(100):
            true_embs = rng.normal(size=(n_classes * per_class, dim))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            fake = LabeledEmbeddingSet(true_embs @ q, labels)
            accs.append(class_accuracy(LabeledEmbeddingSet(true_embs, labels), fake))
        mean = np.mean(accs)
        stderr = np.std(accs, ddof=1) / np.sqrt(len(accs))
        assert abs(mean - 100.0 / n_classes) <= 3.0 * stderr

    def test_rotation_and_scaling_invariance(self):
        rng = np.random.default_rng(7)
        dim = 6
        true_embs = rng.normal(size=(12, dim))
        fake_embs = rng.normal(size=(9, dim))
        true_labels = rng.integers(0, 4, size=12)
        fake_labels = rng.integers(0, 4, size=9)
        base = class_accuracy(LabeledEmbeddingSet(true_embs, true_labels),
                              LabeledEmbeddingSet(fake_embs, fake_labels))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scales = rng.uniform(0.1, 10.0, size=(9, 1))
        rotated = class_accuracy(
            LabeledEmbeddingSet(true_embs @ q, true_labels),
            LabeledEmbeddingSet(fake_embs @ q * scales, fake_labels))
        assert base == rotated

    def test_tie_breaks_to_lowest_index(self):
        true_set = LabeledEmbeddingSet(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]))
        fake_set = LabeledEmbeddingSet(np.array([[2.0, 0.0]]), np.array([1]))
        # both true rows tie; index 0 wins, predicted class 0 != 1
        assert class_accuracy(true_set, fake_set) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            class_accuracy(one_hot_set([0, 1]),
                           LabeledEmbeddingSet(np.ones((1, 3)), np.array([0])))


class TestBleu:
    def test_identity(self):
        tokens = "a red circle on a white background".split()
        assert bleu(tokens, [tokens]) == pytest.approx(1.0)

    def test_clipped_repetition_case(self):
        candidate = "the the the the the the the".split()
        reference = "the cat is on the mat".split()
        assert bleu(candidate, [reference], max_n=1) == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_disjoint_vocab(self):
        assert bleu(["x", "y"], [["a", "b"]]) == 0.0

    def test_brevity_penalty(self):
        candidate = ["a", "b"]
        reference = ["a", "b", "c", "d"]
        want = np.exp(1.0 - 4.0 / 2.0) * np.sqrt(1.0 * (1.0 / 1.0))
        assert bleu(candidate, [reference], max_n=2) == pytest.approx(want)

    def test_multiple_references_clip(self):
        candidate = ["a", "a"]
        assert bleu(candidate, [["a"], ["a", "a"]], max_n=1) == pytest.approx(1.0)

    def test_relabeling_invariance(self):
        candidate = "a b a c".split()
        references = ["a b c c".split(), "b a".split()]
        mapping = {"a": "x", "b": "y", "c": "z"}
        renamed_c = [mapping[t] for t in candidate]
        renamed_r = [[mapping[t] for t in ref] for ref in references]
        assert bleu(candidate, references) == pytest.approx(bleu(renamed_c, renamed_r))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
           st.lists(st.sampled_from("abcd"), min_size=1, max_size=8))
    def test_bounded_with_identity_equality(self, candidate, reference):
        score = bleu(candidate, [reference])
        assert 0.0 <= score <= 1.0
        if candidate == reference:
            assert score == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [["a"]])
        with pytest.raises(ValueError):
            bleu(["a"], [])


class TestRougeL:
    def test_identity(self):
        tokens = "the shape is red".split()
        assert rouge_l(tokens, tokens) == pytest.approx(1.0)

    def test_hand_computed_lcs(self):
        assert rouge_l("a b c d".split(), "a c d e".split()) == pytest.approx(0.75, abs=1e-12)

    def test_disjoint(self):
        assert rouge_l(["x"], ["y"]) == 0.0

    def test_relabeling_invariance(self):
        cand, ref = "a b c a".split(), "b a c".split()
        mapping = {"a": "q", "b": "r", "c": "s"}
        assert rouge_l(cand, ref) == pytest.approx(
            rouge_l([mapping[t] for t in cand], [mapping[t] for t in ref]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rouge_l([], ["a"])


class TestTwoSampleTest:
    def test_statistic_matches_op(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(12, 4)), rng.normal(size=(10, 4))
        kernel = KernelSpec((1.0, 2.0))
        stat, _ = two_sample_test(x, y, kernel, permutations=10, rng=np.random.default_rng(1))
        assert stat == pytest.approx(mmd2_unbiased(x, y, kernel).item(), abs=1e-12)

    def test_shift_gives_minimal_p(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 3)) + 25.0
        _, p = two_sample_test(x, y, KernelSpec((2.0,)), permutations=200,
                               rng=np.random.default_rng(3))
        assert p == pytest.approx(1.0 / 201.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
        kernel = KernelSpec((1.0,))
        a = two_sample_test(x, y, kernel, permutations=50, rng=np.random.default_rng(9))
        b = two_sample_test(x, y, kernel, permutations=50, rng=np.random.default_rng(9))
        assert a == b

    def test_too_small_batch_rejected(self):
        with pytest.raises(ShapeError):
            two_sample_test(np.ones((1, 2)), np.ones((5, 2)), KernelSpec((1.0,)),
                            rng=np.random.default_rng(0))

    @pytest.mark.slow
    def test_calibration_under_null(self):
        # rejection rate at alpha=0.05 stays near 0.05 when H0 holds
        rng = np.random.default_rng(5)
        rejections = 0
        trials = 100
        for _ in range(trials):
            x = rng.normal(size=(30, 4))
            y = rng.normal(size=(30, 4))
            _, p = two_sample_test(x, y, KernelSpec((2.0,)), permutations=200, rng=rng)
            rejections += p <= 0.05
        assert 0.02 <= rejections / trials <= 0.08


class TestMetricReport:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "report.csv"
        report = MetricReport(path, comments=["alpha=1", "seed=3"])
        report.append("metric_a", 1.5, "ds/train", "m.ckpt", 3)
        report.append("metric_b", -0.25, "ds/test", "m.ckpt", 3)
        rows = read_metric_rows(path)
        assert rows[0] == {"metric": "metric_a", "value": 1.5, "dataset": "ds/train",
                           "checkpoint": "m.ckpt", "seed": 3}
        text = path.read_text()
        assert text.startswith("# alpha=1\n# seed=3\n" + MetricReport.HEADER)

    def test_append_only(self, tmp_path):
        path = tmp_path / "report.csv"
        MetricReport(path).append("m", 1.0, "d", "c", 0)
        before = path.read_text()
        MetricReport(path).append("m2", 2.0, "d", "c", 0)
        after = path.read_text()
        assert after.startswith(before)

    def test_non_finite_rejected(self, tmp_path):
        report = MetricReport(tmp_path / "r.csv")
        with pytest.raises(FormatError):
            report.append("m", float("nan"), "d", "c", 0)

    def test_float_roundtrip_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        value = 0.1234567890123456789
        MetricReport(path).append("m", value, "d", "c", 0)
        assert read_metric_rows(path)[0]["value"] == float(value)
