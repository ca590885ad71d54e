"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import statistics

import numpy as np
import pytest

import calib
import spans
import stats
import synth
from arelax import data


class TestSelfTime:
    def test_children_are_subtracted_from_the_parent(self):
        s = [["step", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0]]
        assert spans.self_times(s) == pytest.approx([4.0, 2.0, 4.0])

    def test_grandchildren_count_only_against_their_parent(self):
        s = [["step", 0.0, 10.0, -1], ["a", 1.0, 9.0, 0], ["a.x", 2.0, 5.0, 1]]
        assert spans.self_times(s) == pytest.approx([2.0, 5.0, 3.0])

    def test_overlapping_and_out_of_range_children_are_counted_once(self):
        s = [["step", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0], ["c", 9.0, 12.0, 0]]
        assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_roots_follow_parents_to_the_top(self):
        s = [["step", 0, 5, -1], ["a", 1, 4, 0], ["a.x", 2, 3, 1], ["eval", 6, 7, -1], ["f", 6, 7, 3]]
        assert spans.roots(s) == [0, 0, 0, 3, 3]

    def test_tracer_records_nesting_and_restores_patched_functions(self):
        class Mod:
            @staticmethod
            def inner(x):
                return x + 1

        def outer(x):
            return Mod.inner(x) * 2

        Mod.outer = staticmethod(outer)
        original = Mod.inner
        t = spans.Tracer()
        with t.patched([(Mod, "inner", "mod.inner")]):
            with t.span("step"):
                assert Mod.outer(1) == 4
        assert Mod.inner is original
        assert [(name, parent) for name, _, _, parent in t.spans] == [("step", -1), ("mod.inner", 0)]
        selfs = spans.self_times(t.spans)
        step = t.spans[0][2] - t.spans[0][1]
        assert selfs[0] + selfs[1] == pytest.approx(step)


class TestStats:
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert stats.quartiles(values) == (q1, med, q3)
        assert stats.spread(values) == pytest.approx((q3 - q1) / med)

    def test_single_value_is_its_own_quartiles(self):
        assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
        assert stats.spread([2.5]) == 0.0

    @pytest.mark.parametrize("n, tail", [(1, None), (99, None), (100, 90.0), (999, 90.0),
                                         (1000, 99.0), (10000, 99.9)])
    def test_tail_percentile_keeps_ten_samples_beyond_it(self, n, tail):
        assert stats.tail_percentile(n) == tail

    def test_summary_states_the_sample_count(self):
        values = [float(v) for v in range(1, 201)]
        s = stats.summarize(values)
        assert s["n"] == 200 and s["p50"] == 100.5
        assert s["p90"] == pytest.approx(statistics.quantiles(values, n=10)[-1])
        assert set(stats.summarize(values[:50])) == {"n", "p50"}


class TestSynth:
    @pytest.mark.parametrize("name, shape", [("mnist", (1, 28, 28)), ("cifar10", (3, 32, 32))])
    def test_round_trip_through_load_dataset(self, tmp_path, name, shape):
        synth.WRITERS[name](str(tmp_path), 23, 11, seed=4)
        images, labels = synth.class_images(34, synth.SHAPES[name], seed=4)
        train = data.load_dataset(name, str(tmp_path), "train")
        test = data.load_dataset(name, str(tmp_path), "test")
        assert train.images.shape == (23,) + shape and test.images.shape == (11,) + shape
        got = np.concatenate([train.images, test.images])
        np.testing.assert_array_equal(got, images.reshape(got.shape) / 255.0)
        np.testing.assert_array_equal(np.concatenate([train.labels, test.labels]).argmax(axis=1), labels)

    def test_same_seed_same_files_other_seed_other_files(self, tmp_path):
        for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
            synth.write_mnist(str(tmp_path / sub), 20, 10, seed)
        read = {sub: (tmp_path / sub / "mnist" / "train-images-idx3-ubyte").read_bytes() for sub in "abc"}
        assert read["a"] == read["b"] != read["c"]

    def test_every_class_appears(self):
        _, labels = synth.class_images(40, (4, 4), seed=0)
        assert sorted(np.bincount(labels)) == [4] * 10


def test_calibration_factor_is_reference_over_median_kernel_time():
    c = calib.Calibration()
    c.sample(3)
    assert len(c.times) == 3 and all(t > 0 for t in c.times)
    assert c.factor() == pytest.approx(calib.REFERENCE_S / statistics.median(c.times))
