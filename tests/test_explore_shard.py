"""Sharded sweep execution, shard-report merge, and grid resume.

Pins the PR-6 distribution contract: ``run_sweep(shard=(i, n))`` computes
a deterministic slice of the grid, ``sweep_shard_json`` emits a fragment
per shard, and ``merge_shard_reports`` reassembles the byte-identical
unsharded report — plus the ``resume=`` switch that turns the store's
index-free ``diff`` into incremental grid completion.
"""

import json

import pytest

from repro.explore import (
    SHARD_REPORT_SCHEMA,
    SweepSpec,
    merge_shard_reports,
    run_sweep,
    sweep_report_json,
    sweep_shard_json,
)

GRID = SweepSpec(output_bits=(12, 14, 16))


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """One shared store so the module's sweeps run the flow only once."""
    root = tmp_path_factory.mktemp("shard-cache")
    run_sweep(GRID, jobs=1, cache_dir=root)
    return root


class TestShardedExecution:
    def test_shards_partition_the_grid(self, warm_cache):
        results = [run_sweep(GRID, jobs=1, cache_dir=warm_cache,
                             shard=(i, 2)) for i in (1, 2)]
        labels = [res.label for result in results for res in result.points]
        full = run_sweep(GRID, jobs=1, cache_dir=warm_cache)
        assert sorted(labels) == sorted(res.label for res in full.points)
        assert len(results[0]) + len(results[1]) == len(full)

    def test_shard_metadata(self, warm_cache):
        result = run_sweep(GRID, jobs=1, cache_dir=warm_cache,
                           shard=(2, 3))
        assert result.metadata["shard"] == {"index": 2, "count": 3}
        assert result.metadata["num_points_total"] == 3
        assert result.metadata["num_points"] == len(result.points)

    def test_unsharded_metadata(self, warm_cache):
        result = run_sweep(GRID, jobs=1, cache_dir=warm_cache)
        assert result.metadata["shard"] is None
        assert result.metadata["num_points_total"] == 3


class TestMergeByteIdentity:
    def test_merged_report_is_byte_identical_to_unsharded(self, warm_cache):
        full = sweep_report_json(
            run_sweep(GRID, jobs=1, cache_dir=warm_cache))
        fragments = [
            sweep_shard_json(run_sweep(GRID, jobs=1,
                                       cache_dir=warm_cache, shard=(i, 2)))
            for i in (1, 2)
        ]
        assert merge_shard_reports(fragments) == full

    def test_merge_is_order_independent(self, warm_cache):
        fragments = [
            sweep_shard_json(run_sweep(GRID, jobs=1,
                                       cache_dir=warm_cache, shard=(i, 3)))
            for i in (1, 2, 3)
        ]
        assert (merge_shard_reports(fragments)
                == merge_shard_reports(fragments[::-1]))

    def test_fragment_schema_tag(self, warm_cache):
        fragment = json.loads(sweep_shard_json(
            run_sweep(GRID, jobs=1, cache_dir=warm_cache, shard=(1, 2))))
        assert fragment["schema"] == SHARD_REPORT_SCHEMA
        assert fragment["shard"] == {"index": 1, "count": 2}
        assert fragment["num_points_total"] == 3
        assert all("index" in row for row in fragment["points"])


class TestMergeValidation:
    def _fragments(self, warm_cache, count=2):
        return [
            sweep_shard_json(run_sweep(GRID, jobs=1,
                                       cache_dir=warm_cache,
                                       shard=(i, count)))
            for i in range(1, count + 1)
        ]

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no shard reports"):
            merge_shard_reports([])

    def test_rejects_non_shard_report(self, warm_cache):
        full = sweep_report_json(
            run_sweep(GRID, jobs=1, cache_dir=warm_cache))
        with pytest.raises(ValueError, match="not a sweep shard report"):
            merge_shard_reports([full])

    def test_rejects_missing_shard(self, warm_cache):
        fragments = self._fragments(warm_cache, count=3)
        with pytest.raises(ValueError, match=r"missing shard report\(s\) 2/3"):
            merge_shard_reports([fragments[0], fragments[2]])

    def test_rejects_duplicate_shard(self, warm_cache):
        fragments = self._fragments(warm_cache)
        with pytest.raises(ValueError, match="duplicate shard 1/2"):
            merge_shard_reports([fragments[0], fragments[0], fragments[1]])

    def test_rejects_mixed_runs(self, warm_cache, tmp_path):
        fragments = self._fragments(warm_cache)
        other_grid = SweepSpec(output_bits=(12, 13, 14))
        alien = sweep_shard_json(run_sweep(other_grid, jobs=1,
                                           cache_dir=tmp_path, shard=(2, 2)))
        with pytest.raises(ValueError, match="different runs"):
            merge_shard_reports([fragments[0], alien])

    def test_rejects_shard_count_disagreement(self, warm_cache):
        one_of_two = self._fragments(warm_cache, count=2)[0]
        one_of_three = self._fragments(warm_cache, count=3)[0]
        with pytest.raises(ValueError, match="disagree on the shard count"):
            merge_shard_reports([one_of_two, one_of_three])

    def test_shard_json_requires_sharded_result(self, warm_cache):
        result = run_sweep(GRID, jobs=1, cache_dir=warm_cache)
        with pytest.raises(ValueError, match="needs a sharded result"):
            sweep_shard_json(result)


class TestResume:
    def test_resume_completes_a_partial_grid(self, tmp_path):
        small = SweepSpec(output_bits=(12,))
        run_sweep(small, jobs=1, cache_dir=tmp_path)
        # Growing the grid re-runs only the new points.
        grown = run_sweep(SweepSpec(output_bits=(12, 14)), jobs=1,
                          cache_dir=tmp_path)
        assert grown.cache_hits == 1
        assert grown.cache_misses == 1

    def test_resume_false_recomputes_everything(self, tmp_path):
        small = SweepSpec(output_bits=(12,))
        run_sweep(small, jobs=1, cache_dir=tmp_path)
        cold = run_sweep(small, jobs=1, cache_dir=tmp_path, resume=False)
        assert cold.cache_hits == 0
        assert cold.cache_misses == 1
        # The recomputation republishes identical content: a subsequent
        # resumed run is a pure hit with a byte-identical report.
        warm = run_sweep(small, jobs=1, cache_dir=tmp_path)
        assert warm.cache_hits == 1
        assert sweep_report_json(warm) == sweep_report_json(cold)

    def test_sharded_runs_resume_from_other_shards_work(self, warm_cache):
        """A shard run against a store already populated (here by the
        module's warm-up, standing in for other hosts) is pure cache."""
        result = run_sweep(GRID, jobs=1, cache_dir=warm_cache,
                           shard=(1, 2))
        assert result.cache_misses == 0
        assert result.cache_hits == len(result.points)
