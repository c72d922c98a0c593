"""Experiment harness: the 80-scenario evaluation, campaigns and reports."""

from repro.experiments.runner import (
    MAX_JOBS,
    ExperimentRunner,
    Scenario,
    ScenarioResult,
    resolve_jobs,
)
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.store import (
    CacheStoreError,
    SqliteCacheStore,
    open_store,
    parse_store_uri,
)
from repro.experiments.session import RunSession, SessionError
from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    Variant,
    get_preset,
    load_campaign,
    load_spec_file,
    merge_manifests,
    normalize_manifest,
    parse_shard_spec,
    preset_names,
    shard_cell_indexes,
    shard_manifest_name,
)
from repro.experiments.report import render_campaign_report
from repro.experiments.tables import (
    render_table4,
    render_table5,
    render_translation_tables,
)
from repro.experiments.stats import (
    direction_stats,
    headline_summary,
    replicate_stats,
)

__all__ = [
    "MAX_JOBS",
    "CacheStoreError",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ExperimentRunner",
    "ResultCache",
    "RunSession",
    "SessionError",
    "Scenario",
    "ScenarioResult",
    "SqliteCacheStore",
    "Variant",
    "cache_key",
    "direction_stats",
    "get_preset",
    "headline_summary",
    "load_campaign",
    "load_spec_file",
    "merge_manifests",
    "normalize_manifest",
    "open_store",
    "parse_shard_spec",
    "parse_store_uri",
    "preset_names",
    "shard_cell_indexes",
    "shard_manifest_name",
    "render_campaign_report",
    "render_table4",
    "render_table5",
    "render_translation_tables",
    "replicate_stats",
    "resolve_jobs",
]
