"""Command-line interface: ``python -m repro <command>``.

A thin shell over the stable :mod:`repro.api` facade (translate /
evaluate / run_campaign / build_pipeline).  Commands mirror the
deliverables:

* ``translate`` — run the LASSI pipeline on one suite app;
* ``evaluate``  — the §V experiment grid (optionally filtered);
* ``table``     — print a paper table (4, 5, 6 or 7);
* ``campaign``  — declarative ablation sweeps (run / merge / report /
  list); ``run --shard i/N`` executes one slice of a distributed
  campaign and ``merge`` fuses the slices;
* ``cache``     — inspect / warm / garbage-collect sqlite cache stores
  (``sqlite:<path>`` URIs or bare paths);
* ``trace``     — summarize / show / critical-path ``.trace.jsonl``
  telemetry sidecars written by ``evaluate --trace`` and
  ``campaign run --trace``;
* ``perf``      — deterministic runtime profiles and the perf-regression
  gate (``profile`` builds a committable baseline snapshot, ``compare``
  diffs two snapshots informationally, ``regress`` exits non-zero on
  regression — the CI gate);
* ``synth``     — generate / list / self-check synthetic app suites;
* ``apps`` / ``models`` — list a suite and the model registry.

``translate``, ``evaluate`` and ``campaign run`` accept ``--suite`` —
a registered suite name (``table4``), a generated one
(``synth:stencil,reduction:seeds=3``) or a ``+``-merged view.

Progress and status lines go through the ``repro.cli`` logger (stderr,
bare messages — see :mod:`repro.telemetry.log`); ``--log-level`` tunes
the whole ``repro.*`` namespace.  Hard errors stay on plain stderr
prints so they survive any logging configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import api
from repro.errors import (
    BaselineError,
    UnknownApplicationError,
    UnknownSuiteError,
)
from repro.experiments import (
    CacheStoreError,
    CampaignError,
    RunSession,
    SessionError,
    get_preset,
    headline_summary,
    load_campaign,
    load_spec_file,
    normalize_manifest,
    open_store,
    preset_names,
    render_campaign_report,
    render_table4,
    render_table5,
    render_translation_tables,
)
from repro.experiments.campaign import MANIFEST_NAME, PRESETS
from repro.hecbench import DEFAULT_SUITE, get_app, resolve_suite, suite_names
from repro.llm.profiles import CUDA2OMP, OMP2CUDA
from repro.llm.registry import all_models, model_keys
from repro.synth import FAMILIES, check_apps, parse_suite_spec
from repro.telemetry import (
    collect_trace_paths,
    configure_logging,
    get_logger,
    render_critical_path,
    render_profile_diff,
    render_trace_show,
    render_trace_summary,
    summarize_traces,
)
from repro.telemetry.profile import DEFAULT_TOLERANCE, TOLERANCE_ENV

DEFAULT_PROFILE = "paper"
DEFAULT_SEED = 2024

LOG_LEVELS = ("debug", "info", "warning", "error")

logger = get_logger("cli")


def _resolve_suite_arg(spec: str):
    """Resolve a ``--suite`` value, or print the error and return None."""
    try:
        return resolve_suite(spec)
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _runtime(value: Optional[float]) -> str:
    return f"{value:.4f}" if value is not None else "-"


def _cmd_apps(args) -> int:
    suite = _resolve_suite_arg(args.suite)
    if suite is None:
        return 2
    print(f"suite {suite.name}: {len(suite)} application(s)")
    for app in suite:
        arg_text = ",".join(app.paper_args) if app.paper_args else "-"
        print(
            f"{app.name:26s} {app.category:44s} args={arg_text:14s} "
            f"cuda={_runtime(app.paper_runtime_cuda):>8s}s "
            f"omp={_runtime(app.paper_runtime_omp):>8s}s"
        )
    return 0


def _cmd_models(_args) -> int:
    for m in all_models():
        print(f"{m.key:12s} {m.name:20s} ctx={m.context_length:,} ({m.hosting})")
    return 0


def _cmd_translate(args) -> int:
    try:
        app = get_app(args.app, suite=args.suite)
    except (UnknownApplicationError, UnknownSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    # The resolved app is handed straight to the facade, so the runner
    # never needs to resolve --suite a second time.
    result = api.translate(
        app, model=args.model, direction=args.direction,
        profile=args.profile, seed=args.seed,
    )
    print(f"status: {result.status}")
    print(f"self-corrections: {result.self_corrections}")
    if result.ok:
        print(f"runtime: {result.runtime_seconds:.4f}s  ratio: {result.ratio:.4f}"
              f"  Sim-T: {result.sim_t:.2f}  Sim-L: {result.sim_l:.2f}")
    if args.show_code and result.generated_code:
        print("\n" + result.generated_code)
    return 0 if result.ok else 1


def _cmd_evaluate(args) -> int:
    # nargs="*" yields [] when the flag is given with no values; running the
    # full grid in that case would silently ignore the user's filter intent.
    for flag in ("models", "apps"):
        if getattr(args, flag) == []:
            print(f"--{flag} requires at least one value "
                  f"(omit the flag to run the full grid)", file=sys.stderr)
            return 2
    if args.resume and not args.session:
        print("--resume requires --session PATH", file=sys.stderr)
        return 2
    suite = _resolve_suite_arg(args.suite)
    if suite is None:
        return 2
    apps: Optional[List[str]] = None
    if args.apps:
        # Validate against the suite up front (case-insensitively, with the
        # registry's "did you mean" hints) and canonicalize the names.
        try:
            apps = [suite.get(name).name for name in args.apps]
        except UnknownApplicationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    session = None
    if args.session:
        try:
            session = RunSession(args.session, resume=args.resume)
        except SessionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.resume and len(session):
            logger.info("resuming session %s: %d scenario(s) already recorded",
                        args.session, len(session))

    def progress(sr):
        s = sr.scenario
        logger.info("  %-9s %-12s %-16s -> %s",
                    s.direction, s.model_key, s.app_name, sr.result.status)

    try:
        results = api.evaluate(
            models=args.models or None,
            apps=apps,
            directions=[args.direction] if args.direction else None,
            profile=args.profile, seed=args.seed, jobs=args.jobs,
            backend=args.backend, session=session, suite=suite,
            progress=progress if args.verbose else None,
            trace=args.trace,
        )
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tables = render_translation_tables(results)
    for direction in (OMP2CUDA, CUDA2OMP):
        if args.direction in (None, direction):
            print(tables[direction])
            print()
    print(headline_summary(results))
    return 0


def _cmd_table(args) -> int:
    if args.number in (4, 5):
        if args.profile != DEFAULT_PROFILE or args.seed != DEFAULT_SEED:
            logger.info("note: --profile/--seed only affect tables 6 and 7; "
                        "table %d is static", args.number)
        print(render_table4() if args.number == 4 else render_table5())
        return 0
    if args.number in (6, 7):
        direction = OMP2CUDA if args.number == 6 else CUDA2OMP
        results = api.evaluate(
            directions=[direction], profile=args.profile, seed=args.seed,
            jobs=args.jobs, backend=args.backend,
        )
        print(render_translation_tables(results)[direction])
        return 0
    print(f"no renderer for table {args.number}", file=sys.stderr)
    return 1


def _campaign_spec_from_args(args):
    if args.spec and args.name:
        print("give either a preset name or --spec PATH, not both",
              file=sys.stderr)
        return None
    if args.spec:
        return load_spec_file(args.spec)
    if args.name:
        return get_preset(args.name)
    print(f"campaign run needs a preset name ({', '.join(preset_names())}) "
          f"or --spec PATH", file=sys.stderr)
    return None


def _cmd_campaign_run(args) -> int:
    try:
        spec = _campaign_spec_from_args(args)
        if spec is None:
            return 2
        if args.suite:
            spec = dataclasses.replace(spec, suite=args.suite)
        runner = api.build_campaign(
            spec, root=args.dir, jobs=args.jobs, backend=args.backend,
            log=lambda msg: logger.info("  %s", msg),
            cache_store=args.cache_store, shard=args.shard,
            trace=args.trace,
        )

        def progress(sr):
            s = sr.scenario
            logger.info("    %-9s %-12s %-16s -> %s",
                        s.direction, s.model_key, s.app_name, sr.result.status)

        shard_note = f" (shard {args.shard})" if args.shard else ""
        logger.info("campaign %s: %d cell(s)%s -> %s",
                    spec.name, len(spec.cells()), shard_note, runner.directory)
        result = runner.run(progress=progress if args.verbose else None)
    except (CacheStoreError, CampaignError, SessionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if runner.shard is not None:
        # A shard holds only its slice of every cell; the per-variant
        # comparison tables only make sense after `campaign merge`.
        index, count = runner.shard
        print(f"shard {index}/{count} complete: "
              f"{sum(len(r.results) for r in result.runs)} scenario(s) "
              f"across {len(result.runs)} cell(s); partial manifest "
              f"{runner._manifest_path.name}")
        logger.info("\n%d pipeline run(s) executed; artifacts in %s",
                    result.total_pipeline_runs, runner.directory)
        return 0
    print(render_campaign_report(result))
    logger.info("\n%d pipeline run(s) executed; artifacts in %s",
                result.total_pipeline_runs, runner.directory)
    return 0


def _cmd_campaign_merge(args) -> int:
    try:
        result = api.merge_campaign(args.directory)
    except (CampaignError, SessionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    merged_path = Path(args.directory) / MANIFEST_NAME
    logger.info("merged %d cell(s) into %s", len(result.runs), merged_path)
    if args.reference:
        try:
            reference = json.loads(
                Path(args.reference).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: unreadable reference manifest "
                  f"{args.reference}: {exc}", file=sys.stderr)
            return 2
        merged = json.loads(merged_path.read_text(encoding="utf-8"))
        if normalize_manifest(merged) != normalize_manifest(reference):
            print(f"error: merged manifest differs from reference "
                  f"{args.reference} (beyond pipeline_runs)",
                  file=sys.stderr)
            return 1
        logger.info("merged manifest matches reference %s "
                    "(modulo pipeline_runs)", args.reference)
    print(render_campaign_report(result))
    return 0


# ----------------------------------------------------------------------
def _cmd_cache_stat(args) -> int:
    try:
        store = open_store(args.store)
        stat = store.stat()
    except CacheStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(stat, indent=2, sort_keys=True))
    return 0


def _cmd_cache_warm(args) -> int:
    try:
        source = open_store(args.source)
        dest = open_store(args.store)
        copied: dict = {}
        for ns in sorted(source.stat()["namespaces"]):
            for key in source.keys(namespace=ns):
                entry = source.get(key, namespace=ns)
                if entry is None:
                    continue  # corrupt at source: counted there, not copied
                dest.put(key, entry, namespace=ns)
                copied[ns] = copied.get(ns, 0) + 1
    except CacheStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(
        {
            "from": source.describe(),
            "to": dest.describe(),
            "copied": sum(copied.values()),
            "namespaces": copied,
            "skipped_corrupt": source.corrupt,
        },
        indent=2, sort_keys=True,
    ))
    return 0


def _cmd_cache_gc(args) -> int:
    try:
        store = open_store(args.store)
        report = store.gc(max_age_seconds=args.max_age)
    except CacheStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_dict()
    if report.quarantined_ids:
        payload["quarantined_ids"] = report.quarantined_ids
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_campaign_report(args) -> int:
    directory = Path(args.dir) / args.name if args.name else Path(args.dir)
    try:
        campaign = load_campaign(directory)
    except (CampaignError, SessionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_campaign_report(campaign))
    return 0


def _cmd_campaign_list(args) -> int:
    print("built-in presets:")
    for name in preset_names():
        spec = PRESETS[name]()
        print(f"  {name:26s} {len(spec.variants)} variant(s), "
              f"{len(spec.cells())} cell(s) — {spec.description}")
    root = Path(args.dir)
    manifests = sorted(root.glob(f"*/{MANIFEST_NAME}")) if root.is_dir() else []
    if manifests:
        print(f"\ncampaign directories under {root}:")
        for path in manifests:
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
                cells = manifest.get("cells", [])
                done = sum(1 for c in cells if c.get("completed"))
                print(f"  {path.parent.name:26s} {done}/{len(cells)} "
                      f"cell(s) completed")
            except (OSError, json.JSONDecodeError):
                print(f"  {path.parent.name:26s} (unreadable manifest)")
    return 0


def _cmd_trace_summarize(args) -> int:
    try:
        paths = collect_trace_paths(args.target)
        summary = summarize_traces(paths, top=args.top)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_trace_summary(summary))
    return 0


def _cmd_trace_show(args) -> int:
    try:
        paths = collect_trace_paths(args.target)
        rendered = render_trace_show(paths, limit=args.limit)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _cmd_trace_critical_path(args) -> int:
    try:
        report = api.critical_path(args.target)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_critical_path(report, top=args.top))
    return 0


# ----------------------------------------------------------------------
def _cmd_perf_profile(args) -> int:
    try:
        snap = api.profile_baselines(
            apps=args.apps or None,
            dialects=tuple(args.dialects.split(",")),
            suite=args.suite,
        )
    except (BaselineError, UnknownApplicationError, UnknownSuiteError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        logger.info("wrote %d profile(s) to %s",
                    len(snap["profiles"]), args.out)
    else:
        print(text, end="")
    return 0


def _perf_diff(args):
    """Shared load+diff for ``perf compare`` / ``perf regress``."""
    try:
        report, ok = api.perf_regress(
            args.baseline, args.current, tolerance=args.tolerance
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, False
    if getattr(args, "json_out", None):
        Path(args.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report, ok


def _cmd_perf_compare(args) -> int:
    report, _ok = _perf_diff(args)
    if report is None:
        return 2
    print(render_profile_diff(report))
    return 0


def _cmd_perf_regress(args) -> int:
    report, ok = _perf_diff(args)
    if report is None:
        return 2
    print(render_profile_diff(report))
    return 0 if ok else 1


def _synth_suite_from_args(args):
    """Build a SynthSuiteSpec from --families/--seeds/--difficulty."""
    try:
        return parse_suite_spec(
            f"synth:{args.families}:seeds={args.seeds}"
            f":difficulty={args.difficulty}"
        )
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_synth_list(_args) -> int:
    for fam in FAMILIES.values():
        print(f"{fam.name:12s} {fam.category:32s} {fam.description}")
    return 0


def _cmd_synth_generate(args) -> int:
    spec = _synth_suite_from_args(args)
    if spec is None:
        return 2
    apps = spec.apps()
    reports = check_apps(apps)
    for app, report in zip(apps, reports):
        status = "pass" if report.ok else f"FAIL[{report.stage}]"
        print(f"{app.name:28s} {app.category:32s} {status:22s} {app.notes}")
        if not report.ok and args.verbose:
            print(report.detail, file=sys.stderr)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for app in apps:
            (out_dir / f"{app.name}.cu").write_text(
                app.cuda_source, encoding="utf-8"
            )
            (out_dir / f"{app.name}.cpp").write_text(
                app.omp_source, encoding="utf-8"
            )
        logger.info("wrote %d source file(s) to %s", 2 * len(apps), out_dir)
    passed = sum(1 for r in reports if r.ok)
    print(f"\n{passed}/{len(reports)} generated pair(s) passed the "
          f"differential self-check")
    print(f"suite spec: {spec.spec_string}")
    return 0 if passed == len(reports) else 1


def _cmd_synth_check(args) -> int:
    spec = _synth_suite_from_args(args)
    if spec is None:
        return 2
    apps = spec.apps()
    reports = {r.app_name: r for r in check_apps(apps)}
    failures = 0
    for family in spec.families:
        family_apps = [a for a in apps if a.name.startswith(f"synth-{family}-")]
        ok = sum(1 for a in family_apps if reports[a.name].ok)
        failures += len(family_apps) - ok
        print(f"{family:12s} {ok}/{len(family_apps)} pair(s) agree")
        for app in family_apps:
            report = reports[app.name]
            if not report.ok:
                print(f"  FAIL {app.name} [{report.stage}]", file=sys.stderr)
                if args.verbose:
                    print(report.detail, file=sys.stderr)
    total = len(apps)
    print(f"\ndifferential agreement: {total - failures}/{total}")
    return 0 if failures == 0 else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _jobs_arg(text: str):
    """``--jobs`` spelling: a positive count, ``0``, or ``auto`` (= cores)."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'auto', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_worker_args(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=1, metavar="N",
                   help=f"workers for {what}: a count, or 0/'auto' for one "
                        f"per CPU core (default: 1)")
    p.add_argument("--backend", choices=["thread", "process"],
                   default="thread",
                   help="worker pool kind: 'thread' (shared baselines, best "
                        "for latency-bound runs) or 'process' (scales "
                        "CPU-bound simulation across cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LASSI reproduction (CLUSTER 2024) command-line interface",
    )
    parser.add_argument("--log-level", default="info", choices=LOG_LEVELS,
                        help="verbosity of the repro.* logging namespace "
                             "(stderr; default: info)")
    sub = parser.add_subparsers(dest="command", required=True)

    suite_help = (
        f"application suite: {', '.join(suite_names())}, "
        f"synth:<families>[:seeds=N][:difficulty=D], or a '+'-merged view"
    )

    ap = sub.add_parser("apps", help="list a suite's applications")
    ap.add_argument("--suite", default=DEFAULT_SUITE, help=suite_help)
    ap.set_defaults(func=_cmd_apps)
    sub.add_parser("models", help="list the Table V LLMs").set_defaults(
        func=_cmd_models
    )

    tr = sub.add_parser("translate", help="run the pipeline on one scenario")
    tr.add_argument("app",
                    help="application name (Table IV name or a synthetic "
                         "name like synth-stencil-d1-s0)")
    tr.add_argument("--model", default="gpt4", choices=model_keys())
    tr.add_argument("--direction", default=OMP2CUDA,
                    choices=[OMP2CUDA, CUDA2OMP])
    tr.add_argument("--profile", default=DEFAULT_PROFILE,
                    choices=["paper", "stochastic"])
    tr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tr.add_argument("--suite", default=None, help=suite_help)
    tr.add_argument("--show-code", action="store_true")
    tr.set_defaults(func=_cmd_translate)

    ev = sub.add_parser("evaluate", help="run the evaluation grid")
    ev.add_argument("--models", nargs="*", choices=model_keys())
    ev.add_argument("--apps", nargs="*",
                    help="filter to these apps (must exist in --suite)")
    ev.add_argument("--suite", default=DEFAULT_SUITE, help=suite_help)
    ev.add_argument("--direction", choices=[OMP2CUDA, CUDA2OMP])
    ev.add_argument("--profile", default=DEFAULT_PROFILE,
                    choices=["paper", "stochastic"])
    ev.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_worker_args(ev, "the grid")
    ev.add_argument("--session", metavar="PATH",
                    help="persist each result to a JSONL session artifact")
    ev.add_argument("--resume", action="store_true",
                    help="skip scenarios already recorded in --session")
    ev.add_argument("--trace", action="store_true",
                    help="record telemetry spans per scenario; with "
                         "--session, write them to a .trace.jsonl sidecar "
                         "(inspect with 'repro trace summarize')")
    ev.add_argument("--verbose", "-v", action="store_true")
    ev.set_defaults(func=_cmd_evaluate)

    tb = sub.add_parser("table", help="print a paper table")
    tb.add_argument("number", type=int, choices=[4, 5, 6, 7])
    tb.add_argument("--profile", default=DEFAULT_PROFILE,
                    choices=["paper", "stochastic"])
    tb.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_worker_args(tb, "the table 6/7 half-grid")
    tb.set_defaults(func=_cmd_table)

    cg = sub.add_parser(
        "campaign", help="declarative ablation sweeps over the grid"
    )
    cgsub = cg.add_subparsers(dest="campaign_command", required=True)

    cr = cgsub.add_parser("run", help="run a preset or JSON campaign spec")
    cr.add_argument("name", nargs="?",
                    help=f"built-in preset ({', '.join(preset_names())})")
    cr.add_argument("--spec", metavar="PATH",
                    help="JSON CampaignSpec file instead of a preset")
    cr.add_argument("--dir", default="campaigns", metavar="DIR",
                    help="root directory for campaign artifacts "
                         "(default: campaigns)")
    _add_worker_args(cr, "each variant grid")
    cr.add_argument("--suite", default=None,
                    help=f"override the spec's application suite "
                         f"({suite_help})")
    cr.add_argument("--cache-store", default=None, metavar="URI",
                    help="shared cache store for scenario results "
                         "(sqlite:<path> or a bare path to a sqlite file); "
                         "default: the campaign's own cache.db")
    cr.add_argument("--shard", default=None, metavar="i/N",
                    help="run only this slice of the variant x scenario "
                         "cells (e.g. 0/2) and write a partial "
                         "manifest.shard-i-of-N.json; fuse the slices "
                         "with 'campaign merge'")
    cr.add_argument("--trace", action="store_true",
                    help="write a .trace.jsonl sidecar next to every cell "
                         "session (inspect with 'repro trace summarize')")
    cr.add_argument("--verbose", "-v", action="store_true")
    cr.set_defaults(func=_cmd_campaign_run)

    cm = cgsub.add_parser(
        "merge",
        help="fuse per-shard partial manifests into the canonical "
             "manifest.json + sessions",
    )
    cm.add_argument("directory",
                    help="campaign directory holding every shard's "
                         "manifest.shard-i-of-N.json and sessions")
    cm.add_argument("--reference", metavar="PATH",
                    help="an unsharded manifest.json to compare against; "
                         "exits 1 unless the merged manifest matches it "
                         "modulo the per-cell pipeline_runs counters")
    cm.set_defaults(func=_cmd_campaign_merge)

    cp = cgsub.add_parser("report", help="render a campaign's comparison "
                                         "tables from its directory")
    cp.add_argument("name", nargs="?",
                    help="campaign name under --dir (omit if --dir points "
                         "straight at the campaign directory)")
    cp.add_argument("--dir", default="campaigns", metavar="DIR")
    cp.set_defaults(func=_cmd_campaign_report)

    cl = cgsub.add_parser("list", help="list presets and campaign "
                                       "directories")
    cl.add_argument("--dir", default="campaigns", metavar="DIR")
    cl.set_defaults(func=_cmd_campaign_list)

    ca = sub.add_parser(
        "cache",
        help="inspect / warm / garbage-collect sqlite cache stores",
    )
    casub = ca.add_subparsers(dest="cache_command", required=True)
    store_help = "cache store: sqlite:<path> or a bare sqlite file path"

    cs = casub.add_parser("stat", help="print a store's entry counts, "
                                       "sizes and corrupt-entry count")
    cs.add_argument("store", help=store_help)
    cs.set_defaults(func=_cmd_cache_stat)

    cw = casub.add_parser(
        "warm",
        help="copy every readable entry from another store, namespaces "
             "unchanged (e.g. seed a shared store from a campaign's "
             "cache.db)",
    )
    cw.add_argument("store", help=f"destination {store_help}")
    cw.add_argument("--from", dest="source", required=True, metavar="URI",
                    help=f"source {store_help}")
    cw.set_defaults(func=_cmd_cache_warm)

    cg_ = casub.add_parser(
        "gc",
        help="quarantine corrupt entries and optionally prune old ones",
    )
    cg_.add_argument("store", help=store_help)
    cg_.add_argument("--max-age", type=float, default=None,
                     metavar="SECONDS",
                     help="also prune readable entries older than this "
                          "(default: keep all readable entries)")
    cg_.set_defaults(func=_cmd_cache_gc)

    tc = sub.add_parser(
        "trace",
        help="summarize / show .trace.jsonl telemetry sidecars",
    )
    tcsub = tc.add_subparsers(dest="trace_command", required=True)
    target_help = ("a .trace.jsonl file, a session .jsonl (the sidecar is "
                   "found by convention), or a campaign directory")

    tsu = tcsub.add_parser(
        "summarize",
        help="per-stage latency percentiles, LLM-call histogram, cache "
             "efficiency and the slowest traces",
    )
    tsu.add_argument("target", help=target_help)
    tsu.add_argument("--top", type=_positive_int, default=5, metavar="N",
                     help="how many slowest traces to list (default: 5)")
    tsu.set_defaults(func=_cmd_trace_summarize)

    tsh = tcsub.add_parser("show", help="print every trace's span tree")
    tsh.add_argument("target", help=target_help)
    tsh.add_argument("--limit", type=int, default=0, metavar="N",
                     help="stop after N traces (default: 0 = all)")
    tsh.set_defaults(func=_cmd_trace_show)

    tcp = tcsub.add_parser(
        "critical-path",
        help="attribute each trace's wall time to its dominant bucket "
             "(llm / compile / exec / overhead) and aggregate",
    )
    tcp.add_argument("target", help=target_help)
    tcp.add_argument("--top", type=_positive_int, default=5, metavar="N",
                     help="how many slowest traces to detail (default: 5)")
    tcp.set_defaults(func=_cmd_trace_critical_path)

    pf = sub.add_parser(
        "perf",
        help="deterministic runtime profiles and the perf-regression gate",
    )
    pfsub = pf.add_subparsers(dest="perf_command", required=True)
    snapshot_help = (
        "a profile snapshot: BENCH_*.json with a 'profiles' block, a "
        "campaign manifest.json (per-cell perf summaries), or a bare "
        "snapshot from 'perf profile --out'"
    )

    pp = pfsub.add_parser(
        "profile",
        help="compile+run suite baselines and emit their deterministic "
             "runtime profiles (byte-stable across machines)",
    )
    pp.add_argument("--apps", nargs="*",
                    help="restrict to these applications "
                         "(default: the whole suite)")
    pp.add_argument("--suite", default=None, help=suite_help)
    pp.add_argument("--dialects", default="cuda,omp", metavar="D1,D2",
                    help="comma-separated dialects to profile "
                         "(default: cuda,omp)")
    pp.add_argument("--out", metavar="PATH",
                    help="write the snapshot to PATH instead of stdout "
                         "(commit it as a perf baseline)")
    pp.set_defaults(func=_cmd_perf_profile)

    def _perf_diff_args(p):
        p.add_argument("baseline", help=f"baseline {snapshot_help}")
        p.add_argument("current", help=f"current {snapshot_help}")
        p.add_argument("--tolerance", type=float, default=None, metavar="T",
                       help=f"relative regression tolerance (default: "
                            f"${TOLERANCE_ENV} or {DEFAULT_TOLERANCE:g})")
        p.add_argument("--json-out", metavar="PATH",
                       help="also write the full diff report as JSON "
                            "(CI uploads this as an artifact)")

    pc = pfsub.add_parser(
        "compare",
        help="diff two profile snapshots informationally (always exit 0)",
    )
    _perf_diff_args(pc)
    pc.set_defaults(func=_cmd_perf_compare)

    pr = pfsub.add_parser(
        "regress",
        help="diff two profile snapshots as a gate: exit 1 when any "
             "counter regressed beyond the tolerance or coverage shrank",
    )
    _perf_diff_args(pr)
    pr.set_defaults(func=_cmd_perf_regress)

    sy = sub.add_parser(
        "synth", help="generate / list / self-check synthetic app suites"
    )
    sysub = sy.add_subparsers(dest="synth_command", required=True)

    def _synth_gen_args(p):
        p.add_argument("--families", default="all", metavar="F1,F2",
                       help="comma-separated kernel families, or 'all' "
                            f"({', '.join(FAMILIES)})")
        p.add_argument("--seeds", type=_positive_int, default=1, metavar="N",
                       help="generation seeds 0..N-1 per family (default: 1)")
        p.add_argument("--difficulty", type=_positive_int, default=1,
                       metavar="D", help="template difficulty (default: 1)")
        p.add_argument("--verbose", "-v", action="store_true",
                       help="print failure details to stderr")

    sg = sysub.add_parser(
        "generate",
        help="generate paired CUDA+OMP apps and run the differential "
             "self-check",
    )
    _synth_gen_args(sg)
    sg.add_argument("--out", metavar="DIR",
                    help="also write the generated sources to DIR")
    sg.set_defaults(func=_cmd_synth_generate)

    sl = sysub.add_parser("list", help="list the kernel-family templates")
    sl.set_defaults(func=_cmd_synth_list)

    sc = sysub.add_parser(
        "check",
        help="differentially execute generated pairs and report "
             "per-family agreement",
    )
    _synth_gen_args(sc)
    sc.set_defaults(func=_cmd_synth_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro trace show | head` closes stdout early; point the fd at
        # devnull so the interpreter's shutdown flush stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
