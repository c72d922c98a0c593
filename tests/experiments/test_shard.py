"""Distributed campaign sharding: spec parsing, deterministic
partitioning, shard + merge ≡ unsharded, merge refusals, and
copied cache-store replay."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    Variant,
    load_campaign,
    merge_manifests,
    normalize_manifest,
    open_store,
    parse_shard_spec,
    shard_cell_indexes,
)
from repro.experiments.campaign import MANIFEST_NAME, shard_manifest_name
from repro.llm.profiles import OMP2CUDA

#: A tiny 2-scenario grid so shard tests stay fast.
GRID = dict(models=["gpt4"], directions=[OMP2CUDA], apps=["layout", "entropy"])


def _spec(name="mini", **kw):
    grid = dict(GRID)
    grid.update(kw)
    return CampaignSpec(
        name=name,
        variants=[
            Variant(name="baseline"),
            Variant(name="no-knowledge",
                    overrides={"include_knowledge": False}),
        ],
        **grid,
    )


def _run_sharded(root, count, spec=None, **kw):
    for i in range(count):
        CampaignRunner(
            spec or _spec(), root=root, shard=(i, count), **kw
        ).run()


class TestShardSpec:
    def test_accepts_string_tuple_and_none(self):
        assert parse_shard_spec(None) is None
        assert parse_shard_spec("0/2") == (0, 2)
        assert parse_shard_spec(" 1/3 ") == (1, 3)
        assert parse_shard_spec((2, 5)) == (2, 5)

    def test_rejects_malformed_specs(self):
        for bad in ("", "1", "1/", "/2", "1/2/3", "a/b", "-1/2", "1.5/2"):
            with pytest.raises(CampaignError):
                parse_shard_spec(bad)
        with pytest.raises(CampaignError):
            parse_shard_spec(object())

    def test_rejects_out_of_range_indexes(self):
        with pytest.raises(CampaignError):
            parse_shard_spec("2/2")
        with pytest.raises(CampaignError):
            parse_shard_spec("0/0")


class TestPartition:
    @pytest.mark.parametrize("cells,grid_size,count", [
        (1, 1, 1), (2, 2, 2), (4, 5, 2), (3, 7, 3), (2, 2, 5),
    ])
    def test_shards_partition_the_flat_cell_list(self, cells, grid_size,
                                                 count):
        # Disjoint + complete, per cell, whatever the geometry — including
        # more shards than work (some shards simply get nothing).
        for cell in range(cells):
            seen = []
            for shard in range(count):
                seen.extend(
                    shard_cell_indexes(cell, grid_size, (shard, count))
                )
            assert sorted(seen) == list(range(grid_size))
            assert len(seen) == len(set(seen))

    def test_partition_is_deterministic(self):
        assert shard_cell_indexes(1, 5, (0, 2)) == shard_cell_indexes(
            1, 5, (0, 2)
        )


class TestShardMerge:
    def test_shard_plus_merge_equals_unsharded(self, tmp_path):
        ref_root = tmp_path / "ref"
        shard_root = tmp_path / "sharded"
        CampaignRunner(_spec(), root=ref_root).run()
        _run_sharded(shard_root, 2,
                     cache_store=f"sqlite:{tmp_path / 'store.db'}")

        result = merge_manifests(shard_root / "mini")

        ref = json.loads(
            (ref_root / "mini" / MANIFEST_NAME).read_text()
        )
        merged = json.loads(
            (shard_root / "mini" / MANIFEST_NAME).read_text()
        )
        # Byte-identity modulo pipeline_runs for the manifest...
        assert normalize_manifest(merged) == normalize_manifest(ref)
        # ...and full byte-identity for the canonical sessions.
        for cell in ref["cells"]:
            a = (ref_root / "mini" / cell["session"]).read_bytes()
            b = (shard_root / "mini" / cell["session"]).read_bytes()
            assert a == b
        # The merged result loads like any campaign and is complete.
        loaded = load_campaign(shard_root / "mini")
        assert all(r.complete for r in loaded.runs)
        assert len(loaded.runs) == len(result.runs) == 2

    def test_merged_matches_a_cache_replayed_reference(self, tmp_path):
        # The CI fan-in gate rebuilds its unsharded reference *from the
        # shards' fused store*, so its cells report pipeline_runs=0 while
        # the merged manifest sums real executions.  That counter is
        # execution telemetry, not a result: the gate must still pass.
        uri = f"sqlite:{tmp_path / 'store.db'}"
        _run_sharded(tmp_path / "sharded", 2, cache_store=uri)
        merge_manifests(tmp_path / "sharded" / "mini")
        replayed = CampaignRunner(
            _spec(), root=tmp_path / "ref", cache_store=uri
        ).run()
        assert replayed.total_pipeline_runs == 0

        merged = json.loads(
            (tmp_path / "sharded" / "mini" / MANIFEST_NAME).read_text()
        )
        ref = json.loads(
            (tmp_path / "ref" / "mini" / MANIFEST_NAME).read_text()
        )
        assert merged["cells"][0]["pipeline_runs"] == 2
        assert ref["cells"][0]["pipeline_runs"] == 0
        assert normalize_manifest(merged) == normalize_manifest(ref)

    def test_sharded_run_writes_partial_artifacts_only(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path, shard="0/2").run()
        campaign_dir = tmp_path / "mini"
        assert (campaign_dir / shard_manifest_name(0, 2)).exists()
        assert not (campaign_dir / MANIFEST_NAME).exists()
        sessions = sorted(
            p.name for p in (campaign_dir / "sessions").iterdir()
        )
        assert sessions == [
            "baseline-seed2024.shard-0-of-2.jsonl",
            "no-knowledge-seed2024.shard-0-of-2.jsonl",
        ]
        manifest = json.loads(
            (campaign_dir / shard_manifest_name(0, 2)).read_text()
        )
        assert manifest["type"] == "campaign-shard-manifest"
        assert manifest["shard"] == {"index": 0, "count": 2}
        assert manifest["grid_size"] == 2

    def test_shards_split_the_pipeline_work(self, tmp_path):
        # 2 cells x 2 scenarios round-robin over 2 shards: each shard
        # executes exactly half the flat list.
        runner0 = CampaignRunner(_spec(), root=tmp_path, shard=(0, 2))
        runner1 = CampaignRunner(_spec(), root=tmp_path, shard=(1, 2))
        r0 = runner0.run()
        r1 = runner1.run()
        assert r0.total_pipeline_runs == 2
        assert r1.total_pipeline_runs == 2

    def test_merge_refuses_missing_shard(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path, shard="0/2").run()
        with pytest.raises(CampaignError, match="missing"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_empty_directory(self, tmp_path):
        (tmp_path / "mini").mkdir()
        with pytest.raises(CampaignError, match="no shard manifests"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_disagreeing_shard_counts(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path, shard="0/2").run()
        CampaignRunner(_spec(), root=tmp_path, shard="1/3").run()
        with pytest.raises(CampaignError, match="disagree"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_fingerprint_mismatch(self, tmp_path):
        _run_sharded(tmp_path, 2)
        path = tmp_path / "mini" / shard_manifest_name(1, 2)
        manifest = json.loads(path.read_text())
        manifest["cells"][0]["config_fingerprint"] = "0" * 64
        path.write_text(json.dumps(manifest))
        with pytest.raises(CampaignError, match="fingerprint"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_different_specs(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path, shard="0/2").run()
        other = tmp_path / "other"
        CampaignRunner(
            _spec(apps=["layout", "bsearch"]), root=other, shard="1/2"
        ).run()
        # Graft a shard of a *different* grid into the directory.
        (tmp_path / "mini" / shard_manifest_name(1, 2)).write_text(
            (other / "mini" / shard_manifest_name(1, 2)).read_text()
        )
        with pytest.raises(CampaignError, match="different grids"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_incomplete_shard_cell(self, tmp_path):
        _run_sharded(tmp_path, 2)
        path = tmp_path / "mini" / shard_manifest_name(0, 2)
        manifest = json.loads(path.read_text())
        manifest["cells"][1]["completed"] = False
        path.write_text(json.dumps(manifest))
        with pytest.raises(CampaignError, match="not completed"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_missing_scenario_coverage(self, tmp_path):
        _run_sharded(tmp_path, 2)
        session = (
            tmp_path / "mini" / "sessions"
            / "baseline-seed2024.shard-0-of-2.jsonl"
        )
        lines = session.read_text().splitlines()
        # Drop the shard's one scenario record, keep the header: the
        # manifest still claims completion but coverage has a hole.
        session.write_text("\n".join(lines[:1]) + "\n")
        with pytest.raises(CampaignError, match="missing 1 of 2"):
            merge_manifests(tmp_path / "mini")

    def test_merge_refuses_overlapping_coverage(self, tmp_path):
        _run_sharded(tmp_path, 2)
        sessions = tmp_path / "mini" / "sessions"
        a = sessions / "baseline-seed2024.shard-0-of-2.jsonl"
        b = sessions / "baseline-seed2024.shard-1-of-2.jsonl"
        # Copy shard 1's scenario record into shard 0's session: same
        # scenario now recorded twice.
        record = b.read_text().splitlines()[1]
        with a.open("a") as handle:
            handle.write(record + "\n")
        with pytest.raises(CampaignError, match="disjoint"):
            merge_manifests(tmp_path / "mini")

    def test_merge_is_idempotent(self, tmp_path):
        _run_sharded(tmp_path, 2)
        merge_manifests(tmp_path / "mini")
        first = (tmp_path / "mini" / MANIFEST_NAME).read_bytes()
        merge_manifests(tmp_path / "mini")
        assert (tmp_path / "mini" / MANIFEST_NAME).read_bytes() == first

    def test_shard_and_unsharded_sessions_coexist(self, tmp_path):
        # Merging leaves the shard artifacts in place; a later unsharded
        # resume of the same directory must ignore them (and vice versa).
        _run_sharded(tmp_path, 2)
        merge_manifests(tmp_path / "mini")
        rerun = CampaignRunner(_spec(), root=tmp_path).run()
        assert rerun.total_pipeline_runs == 0  # everything from sessions


class TestSharedStoreReplay:
    def test_copied_store_replay_is_identical(self, tmp_path):
        # Fill a store, copy its entries into a second one (a store
        # shipped to another host), then replay the campaign from each:
        # zero executions and byte-identical sessions either way.
        first_uri = f"sqlite:{tmp_path / 'first.db'}"
        copy_uri = f"sqlite:{tmp_path / 'copy.db'}"
        first = CampaignRunner(
            _spec(), root=tmp_path / "a", cache_store=first_uri
        ).run()
        assert first.total_pipeline_runs == 4

        source, dest = open_store(first_uri), open_store(copy_uri)
        for ns in source.stat()["namespaces"]:
            for key in source.keys(namespace=ns):
                dest.put(key, source.get(key, namespace=ns), namespace=ns)

        from_first = CampaignRunner(
            _spec(), root=tmp_path / "b", cache_store=first_uri
        ).run()
        from_copy = CampaignRunner(
            _spec(), root=tmp_path / "c", cache_store=copy_uri
        ).run()
        assert from_first.total_pipeline_runs == 0
        assert from_copy.total_pipeline_runs == 0
        for cell in first.runs:
            name = f"sessions/{cell.variant.name}-seed{cell.seed}.jsonl"
            assert (tmp_path / "b" / "mini" / name).read_bytes() == (
                tmp_path / "c" / "mini" / name
            ).read_bytes() == (tmp_path / "a" / "mini" / name).read_bytes()

    def test_stores_hold_only_results(self, tmp_path):
        # A shared store and a campaign's own cache.db hold the four
        # scenario results and nothing else (no compiler entries).
        uri = f"sqlite:{tmp_path / 'store.db'}"
        CampaignRunner(_spec(), root=tmp_path / "a", cache_store=uri).run()
        assert open_store(uri).stat()["namespaces"] == {"results": 4}
        own = CampaignRunner(_spec(), root=tmp_path / "b").run()
        assert open_store(own.directory / "cache.db").stat()[
            "namespaces"
        ] == {"results": 4}


class TestTracedShardMerge:
    """PR-7 acceptance: a sharded campaign with a shared cache store and
    tracing yields per-shard trace sidecars that merge fuses into one
    queryable trace per cell, with one trace per executed scenario."""

    def test_traced_shards_fuse_into_canonical_traces(self, tmp_path):
        from repro.telemetry import (
            collect_trace_paths,
            summarize_traces,
            trace_path_for,
        )

        uri = f"sqlite:{tmp_path / 'store.db'}"
        _run_sharded(tmp_path, 2, cache_store=uri, trace=True)
        campaign_dir = tmp_path / "mini"

        # Before the merge: per-shard sidecars only.
        shard_traces = sorted(
            p.name for p in (campaign_dir / "sessions").glob("*.trace.jsonl")
        )
        assert shard_traces == [
            "baseline-seed2024.shard-0-of-2.trace.jsonl",
            "baseline-seed2024.shard-1-of-2.trace.jsonl",
            "no-knowledge-seed2024.shard-0-of-2.trace.jsonl",
            "no-knowledge-seed2024.shard-1-of-2.trace.jsonl",
        ]

        merge_manifests(campaign_dir)
        manifest = json.loads((campaign_dir / MANIFEST_NAME).read_text())
        # Spans are the only telemetry record: no manifest carries any.
        for path in campaign_dir.glob("manifest*.json"):
            assert "telemetry" not in json.loads(path.read_text()), path

        # The merge fused every cell's shards into a canonical sidecar...
        for cell in manifest["cells"]:
            assert trace_path_for(campaign_dir / cell["session"]).exists()
        paths = collect_trace_paths(campaign_dir)
        assert all(".shard-" not in p.name for p in paths)

        # ...and the fused traces hold every executed scenario once.
        summary = summarize_traces(paths)
        assert summary["traces"] == 4  # 2 cells x 2 scenarios, all traced
        assert sum(summary["statuses"].values()) == 4
        assert summary["compile"]["calls"] >= 4
        assert summary["llm"]["calls"] >= 4

    def test_untraced_campaign_writes_no_telemetry(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path).run()
        manifest = json.loads(
            (tmp_path / "mini" / MANIFEST_NAME).read_text()
        )
        assert "telemetry" not in manifest
        assert not list((tmp_path / "mini" / "sessions").glob("*.trace.jsonl"))
