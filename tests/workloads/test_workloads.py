"""Tests for benchmark definitions and their real implementations."""

import numpy as np
import pytest

from repro.core.local import LocalContext
from repro.workloads import (
    generate_kv_pairs,
    generate_labelled_points,
    generate_text_corpus,
    grep_spec,
    groupby_spec,
    logistic_regression_spec,
    run_grep_local,
    run_groupby_local,
    run_logistic_regression_local,
)
from repro.workloads.logreg import lr_accuracy

GB = 1024.0 ** 3
MB = 1024.0 ** 2


class TestDatagen:
    def test_text_corpus_size_and_needles(self):
        lines = generate_text_corpus(1000, needle_rate=0.05, seed=1)
        assert len(lines) == 1000
        hits = [ln for ln in lines if "NEEDLE" in ln]
        assert 20 < len(hits) < 100

    def test_text_corpus_deterministic(self):
        assert generate_text_corpus(50, seed=3) == \
            generate_text_corpus(50, seed=3)

    def test_kv_pairs(self):
        pairs = generate_kv_pairs(500, n_keys=10, seed=0)
        assert len(pairs) == 500
        assert all(0 <= k < 10 for k, _ in pairs)

    def test_kv_pairs_skewed_has_hot_keys(self):
        pairs = generate_kv_pairs(5000, n_keys=100, skew=1.0, seed=0)
        from collections import Counter
        counts = Counter(k for k, _ in pairs)
        top = counts.most_common(1)[0][1]
        assert top > 5000 / 100 * 5  # far above uniform share

    def test_labelled_points(self):
        pts = generate_labelled_points(100, dims=5, seed=0)
        assert len(pts) == 100
        assert pts[0][0].shape == (5,)
        assert set(y for _, y in pts) <= {-1.0, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_text_corpus(-1)
        with pytest.raises(ValueError):
            generate_text_corpus(1, needle_rate=2.0)
        with pytest.raises(ValueError):
            generate_kv_pairs(-1)
        with pytest.raises(ValueError):
            generate_labelled_points(10, dims=0)

    def test_kv_pairs_rejections_are_pointed(self):
        with pytest.raises(ValueError, match=r"n_pairs.*got -5"):
            generate_kv_pairs(-5)
        with pytest.raises(ValueError, match=r"n_keys must be >= 1, got 0"):
            generate_kv_pairs(10, n_keys=0)
        with pytest.raises(ValueError, match=r"n_keys must be >= 1, got -3"):
            generate_kv_pairs(10, n_keys=-3)
        with pytest.raises(ValueError, match=r"skew must be >= 0, got -0.5"):
            generate_kv_pairs(10, skew=-0.5)

    def test_kv_pairs_boundary_values_accepted(self):
        assert generate_kv_pairs(0) == []
        assert len(generate_kv_pairs(5, n_keys=1)) == 5
        assert len(generate_kv_pairs(5, skew=0.0)) == 5


class TestSpecs:
    def test_groupby_intermediate_equals_input(self):
        spec = groupby_spec(100 * GB)
        assert spec.intermediate_ratio == 1.0
        assert spec.intermediate_bytes == pytest.approx(100 * GB)

    def test_grep_tiny_intermediate(self):
        spec = grep_spec(100 * GB)
        # Paper: 1 MB - 200 MB of intermediate data.
        assert spec.intermediate_bytes <= 200 * MB

    def test_grep_lustre_variant_uses_lustre_paths(self):
        spec = grep_spec(10 * GB, input_source="lustre")
        assert spec.shuffle_store == "lustre"
        assert spec.fetch_mode == "lustre-local"

    def test_lustre_store_defaults_to_lustre_fetch(self):
        """Regression: a Lustre store with the default fetch mode used
        to pass validation, then crash in the fetch stage (``KeyError:
        node 2 has no volume 'lustre'``)."""
        from repro.cluster.spec import hyperion
        from repro.core.engine import EngineOptions, run_job
        spec = groupby_spec(2 * GB, shuffle_store="lustre")
        assert spec.fetch_mode == "lustre-local"
        res = run_job(spec, cluster_spec=hyperion(4),
                      options=EngineOptions(seed=3))
        assert res.fetch_time > 0

    def test_lustre_store_rejects_network_fetch(self):
        with pytest.raises(ValueError, match="lustre fetch mode"):
            groupby_spec(2 * GB, shuffle_store="lustre",
                         fetch_mode="network")
        spec = groupby_spec(2 * GB)
        with pytest.raises(ValueError, match="lustre fetch mode"):
            spec.with_(shuffle_store="lustre")

    def test_default_fetch_mode_is_network_off_lustre(self):
        for store in ("ramdisk", "ssd"):
            assert groupby_spec(GB, shuffle_store=store).fetch_mode \
                == "network"
        assert logistic_regression_spec(GB).fetch_mode == "network"

    def test_lr_three_iterations_cached_no_shuffle(self):
        spec = logistic_regression_spec(10 * GB)
        assert spec.iterations == 3
        assert spec.cache_input
        assert spec.shuffle_store is None

    def test_lr_is_more_compute_intense_than_grep(self):
        lr = logistic_regression_spec(GB)
        gr = grep_spec(GB)
        assert lr.map_compute_rate < gr.map_compute_rate / 2


class TestRealImplementations:
    def test_grep_finds_exactly_the_needles(self):
        lines = generate_text_corpus(500, needle_rate=0.1, seed=2)
        expected = [ln for ln in lines if "NEEDLE" in ln]
        assert sorted(run_grep_local(lines, "NEEDLE")) == sorted(expected)

    def test_grep_regex_patterns(self):
        lines = ["alpha1", "beta2", "alpha3"]
        assert run_grep_local(lines, r"alpha\d") == ["alpha1", "alpha3"]

    def test_groupby_groups_all_values(self):
        pairs = generate_kv_pairs(300, n_keys=7, seed=1)
        grouped = run_groupby_local(pairs)
        assert sum(len(v) for v in grouped.values()) == 300
        expected_keys = {k for k, _ in pairs}
        assert set(grouped) == expected_keys

    def test_groupby_matches_naive(self):
        pairs = [(1, 10), (2, 20), (1, 30)]
        assert run_groupby_local(pairs) == {1: [10, 30], 2: [20]}

    def test_lr_converges_on_separable_data(self):
        pts = generate_labelled_points(400, dims=5, seed=4)
        w = run_logistic_regression_local(pts, iterations=10)
        assert lr_accuracy(pts, w) > 0.9

    def test_lr_uses_cached_rdd(self):
        ctx = LocalContext(parallelism=2)
        pts = generate_labelled_points(50, dims=3, seed=0)
        run_logistic_regression_local(pts, iterations=3, ctx=ctx)
        # Source partitions computed once despite 3 iterations.
        assert ctx.backend.partitions_computed == 2

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            run_logistic_regression_local([])
        pts = generate_labelled_points(10, seed=0)
        with pytest.raises(ValueError):
            run_logistic_regression_local(pts, iterations=0)
        with pytest.raises(ValueError):
            lr_accuracy([], np.zeros(3))
