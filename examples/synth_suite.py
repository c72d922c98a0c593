#!/usr/bin/env python3
"""Synthetic scenarios end-to-end: generate -> self-check -> evaluate ->
campaign report.

The Table IV suite is ten fixed apps; ``repro.synth`` makes the grid
open-ended.  This example:

1. generates a paired CUDA+OMP suite from three kernel families,
2. differentially self-checks every pair (the KernelBench-style oracle),
3. runs the LASSI evaluation grid over the generated suite, and
4. sweeps a campaign (baseline vs. no-knowledge) over the same suite and
   renders the comparison report.

Everything is deterministic: the suite spec string is the experiment's
full identity, and generated app names encode their generation tuples.
"""

import tempfile

from repro.experiments import (
    CampaignRunner,
    CampaignSpec,
    ExperimentRunner,
    Variant,
    headline_summary,
    render_campaign_report,
)
from repro.synth import check_apps, parse_suite_spec

SUITE = "synth:stencil,reduction,histogram:seeds=2"


def main() -> int:
    # 1. + 2. Generate the suite and self-check every pair.
    spec = parse_suite_spec(SUITE)
    apps = spec.apps()
    reports = check_apps(apps)
    print(f"generated {len(apps)} paired apps from {SUITE}")
    for app, report in zip(apps, reports):
        status = "pass" if report.ok else f"FAIL[{report.stage}]"
        print(f"  {app.name:28s} {status}   {app.notes}")
    if not all(r.ok for r in reports):
        return 1

    # 3. Evaluate the LASSI grid over the generated suite (one direction,
    #    two models, to keep the example quick).
    runner = ExperimentRunner(jobs=4, suite=SUITE)
    results = runner.run(models=["gpt4", "codestral"],
                         directions=["omp2cuda"])
    print(f"\nevaluated {len(results)} scenarios over {SUITE}:\n")
    print(headline_summary(results))

    # 4. Campaign sweep over the same suite, then the comparison report.
    campaign = CampaignSpec(
        name="synth-example",
        suite=SUITE,
        models=["gpt4"],
        directions=["omp2cuda"],
        variants=[
            Variant(name="baseline"),
            Variant(name="no-knowledge",
                    overrides={"include_knowledge": False}),
        ],
    )
    with tempfile.TemporaryDirectory() as root:
        result = CampaignRunner(campaign, root=root, jobs=4).run()
        print()
        print(render_campaign_report(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
