"""Command-line interface.

The CLI is scenario-driven: every experiment is a registered
:class:`~repro.experiments.spec.ExperimentSpec` that can be listed, inspected
and run with declarative overrides::

    python -m repro.cli list --verbose
    python -m repro.cli describe univariate-power
    python -m repro.cli run univariate-power --set data.weeks=20 --set policy.episodes=10
    python -m repro.cli run mixed-detectors --output-dir reports/
    python -m repro.cli fleet fleet-burst-storm --shards 2 --output-dir reports/
    python -m repro.cli fleet fleet-crash-resume --checkpoint-dir ckpt --checkpoint-cadence 5
    python -m repro.cli resume ckpt

``--set`` takes dotted spec paths (``data.weeks``, ``detectors.0.epochs``,
``fleet.n_devices``, ...); values are coerced to the type of the field they
replace and unknown keys are rejected.  ``repro describe`` prints the full
spec as JSON, which doubles as the reference for valid ``--set`` keys.
``repro fleet`` trains a scenario and streams its fleet workload through the
trained system (see :mod:`repro.fleet`); ``--seed`` on both ``run`` and
``fleet`` reseeds the whole experiment without dotted ``--set`` syntax, and
``repro fleet --profile`` prints the per-stage wall-clock breakdown of the
stream (arrivals / context+policy / detect / metrics / adapt).
``repro fleet --adapt`` closes the model-lifecycle loop during the stream
(drift monitoring, gated online retraining, hot-swap deployment — see
:mod:`repro.adapt`), and ``repro models list/show/rollback`` inspects and
manages the versioned checkpoint registry those runs write::

    python -m repro.cli serve serve-front-door --set serve.offered_rps=300
    python -m repro.cli serve serve-front-door --hot-swap --output-dir reports/

``repro serve`` trains a scenario and serves its fleet traffic through the
asyncio ingest front door (see :mod:`repro.serving`): open-loop Poisson
arrivals, micro-batched detection, bounded-queue load shedding and a p99
latency SLO; ``--hot-swap`` lands one blue/green deployment mid-run through
the drain-and-swap gate without dropping a request::

    python -m repro.cli fleet adapt-1k-drift-recovery --output-dir reports/
    python -m repro.cli models list --registry reports/registry
    python -m repro.cli models rollback iot --registry reports/registry

``repro qualify`` runs a registered pack of hostile/heterogeneous scenarios
(see :mod:`repro.fleet.qualify`) and judges each against its pinned pass/fail
contracts, exiting 0 only when every contract holds::

    python -m repro.cli qualify --pack hostile --output-dir reports/
    python -m repro.cli qualify --pack hostile --scenario qualify-flash-crowd
    python -m repro.cli qualify --pack control   # deliberately fails (exit 1)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.adapt import AdaptSpec, ModelRegistry
from repro.evaluation.reporting import write_report
from repro.evaluation.tables import format_table
from repro.exceptions import ReproError
from repro.experiments import (
    SCENARIOS,
    ExperimentRunner,
    ServingSpec,
    apply_overrides,
    get_scenario,
    parse_set_arguments,
)
from repro.fleet.engine import STAGES


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the contextual-bandit HEC anomaly-detection experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # -- scenario commands ------------------------------------------------------

    run = subparsers.add_parser(
        "run", help="run a registered scenario (see 'repro list')"
    )
    run.add_argument("scenario", nargs="?", default=None,
                     help="scenario name, e.g. univariate-power")
    run.add_argument("--spec-file", type=str, default=None,
                     help="run a spec from a JSON file (as printed by "
                     "'repro describe' or --spec-only) instead of a scenario")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field by dotted path, e.g. --set data.weeks=20; "
        "repeatable ('repro describe <scenario>' shows the valid keys)",
    )
    run.add_argument("--seed", type=int, default=None,
                     help="master random seed (the data seed follows)")
    run.add_argument("--output-dir", type=str, default=None,
                     help="directory for the JSON/Markdown reproduction reports")
    run.add_argument("--quiet", action="store_true", help="suppress table output")
    run.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                     help="write telemetry (trace.jsonl, metrics.json, "
                     "metrics.prom) to DIR; sugar for --set obs.dir=DIR")
    run.add_argument("--spec-only", action="store_true",
                     help="print the resolved spec as JSON and exit without running")

    fleet = subparsers.add_parser(
        "fleet",
        help="train a fleet scenario and stream its device fleet through the "
        "system (see 'repro list' for scenarios tagged [fleet])",
    )
    fleet.add_argument("scenario", nargs="?", default=None,
                       help="fleet scenario name, e.g. fleet-burst-storm")
    fleet.add_argument("--spec-file", type=str, default=None,
                       help="stream a spec from a JSON file (as printed by "
                       "'repro describe' or --spec-only) instead of a scenario")
    fleet.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field by dotted path, e.g. --set fleet.n_devices=500; "
        "repeatable ('repro describe <scenario>' shows the valid keys)",
    )
    fleet.add_argument("--seed", type=int, default=None,
                       help="master random seed (data and device streams follow)")
    fleet.add_argument("--shards", type=int, default=None,
                       help="partition the fleet across this many worker processes "
                       "(overrides fleet.n_shards)")
    fleet.add_argument("--adapt", action="store_true",
                       help="stream with the adaptation loop (drift monitoring, "
                       "online retraining, hot-swap deployment); scenarios with "
                       "an 'adapt' spec node adapt by default")
    fleet.add_argument("--registry", type=str, default=None,
                       help="model-registry directory for adaptive runs (default: "
                       "adapt.registry_dir, else <output-dir>/registry, else "
                       "<checkpoint-dir>/registry, else a temporary directory)")
    fleet.add_argument("--output-dir", type=str, default=None,
                       help="directory for the JSON fleet report")
    fleet.add_argument("--profile", action="store_true",
                       help="print a per-stage wall-clock breakdown of the stream "
                       "(arrivals / context+policy / detect / metrics / adapt) "
                       "from the run's telemetry counters; sharded runs add up "
                       "their shards' seconds; uses an in-memory telemetry "
                       "session when --telemetry is absent")
    fleet.add_argument("--checkpoint-dir", type=str, default=None,
                       help="directory for durable streaming checkpoints; a killed "
                       "run restarts from the newest one with --resume (or "
                       "'repro resume <dir>')")
    fleet.add_argument("--checkpoint-cadence", type=int, default=0,
                       help="checkpoint every N ticks (0 = only --checkpoint-dir's "
                       "run.json, no periodic snapshots); requires --checkpoint-dir")
    fleet.add_argument("--resume", action="store_true",
                       help="continue from the newest checkpoint in --checkpoint-dir "
                       "(bit-identical to an uninterrupted run)")
    fleet.add_argument("--quiet", action="store_true", help="suppress summary output")
    fleet.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                       help="write telemetry (trace.jsonl, metrics.json, "
                       "metrics.prom) to DIR; sugar for --set obs.dir=DIR "
                       "(sharded runs write per-shard shard-NN/ sinks and "
                       "merge them into DIR)")
    fleet.add_argument("--watch", type=int, nargs="?", const=1, default=None,
                       metavar="N",
                       help="print a rolling health line every N ticks "
                       "(default 1) and evaluate the stock fleet alert rules; "
                       "uses an in-memory telemetry session when --telemetry "
                       "is absent")
    fleet.add_argument("--spec-only", action="store_true",
                       help="print the resolved spec as JSON and exit without running")

    serve = subparsers.add_parser(
        "serve",
        help="train a scenario and serve its fleet traffic through the asyncio "
        "ingest front door (micro-batching, load shedding, p99 SLO)",
    )
    serve.add_argument("scenario", nargs="?", default=None,
                       help="serving scenario name, e.g. serve-front-door")
    serve.add_argument("--spec-file", type=str, default=None,
                       help="serve a spec from a JSON file (as printed by "
                       "'repro describe' or --spec-only) instead of a scenario")
    serve.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field by dotted path, e.g. --set serve.offered_rps=500; "
        "repeatable ('repro describe <scenario>' shows the valid keys)",
    )
    serve.add_argument("--seed", type=int, default=None,
                       help="master random seed (data, arrivals and service follow)")
    serve.add_argument("--hot-swap", action="store_true",
                       help="perform one blue/green detector swap mid-run through "
                       "the drain-and-swap gate (zero dropped requests)")
    serve.add_argument("--output-dir", type=str, default=None,
                       help="directory for the JSON serving report")
    serve.add_argument("--quiet", action="store_true", help="suppress summary output")
    serve.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                       help="write telemetry (trace.jsonl, metrics.json, "
                       "metrics.prom) to DIR; sugar for --set obs.dir=DIR")
    serve.add_argument("--watch", type=int, nargs="?", const=8, default=None,
                       metavar="N",
                       help="print a rolling health line every N served "
                       "requests (default 8) with SLO burn-rate alerting; "
                       "uses an in-memory telemetry session when --telemetry "
                       "is absent")
    serve.add_argument("--spec-only", action="store_true",
                       help="print the resolved spec as JSON and exit without running")

    qualify = subparsers.add_parser(
        "qualify",
        help="run a qualification pack of hostile/heterogeneous scenarios and "
        "judge each against its pinned pass/fail contracts",
    )
    qualify.add_argument("--pack", type=str, default="hostile",
                         help="qualification pack to run (default: hostile; "
                         "'control' is the deliberately-failing control pack)")
    qualify.add_argument("--scenario", type=str, default=None,
                         help="run only this scenario of the pack")
    qualify.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a qualify field by dotted path, e.g. "
        "--set qualify.ticks_scale=0.5; repeatable",
    )
    qualify.add_argument("--seed", type=int, default=None,
                         help="master random seed applied to every case")
    qualify.add_argument("--output-dir", type=str, default=None,
                         help="directory for the JSON qualification report")
    qualify.add_argument("--quiet", action="store_true",
                         help="suppress the qualification matrix output")
    qualify.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                         help="write the qualification run's telemetry "
                         "(trace.jsonl with alert.fire events, metrics.json) "
                         "to DIR")

    resume = subparsers.add_parser(
        "resume",
        help="resume a killed 'repro fleet --checkpoint-dir' run from its directory",
    )
    resume.add_argument("checkpoint_dir",
                        help="the --checkpoint-dir of the interrupted run "
                        "(holds run.json and the shard checkpoints)")
    resume.add_argument("--output-dir", type=str, default=None,
                        help="directory for the JSON fleet report")
    resume.add_argument("--quiet", action="store_true",
                        help="suppress summary output")

    # -- model registry ---------------------------------------------------------

    models = subparsers.add_parser(
        "models",
        help="inspect and manage the versioned model registry "
        "(checkpoints written by adaptive fleet runs)",
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)
    for name, help_text in (
        ("list", "list committed checkpoint versions and per-tier lineage"),
        ("show", "show one checkpoint version's lineage metadata as JSON"),
        ("rollback", "demote a tier's current version to its predecessor"),
    ):
        sub = models_sub.add_parser(name, help=help_text)
        sub.add_argument("--registry", type=str, default="model-registry",
                        help="model-registry directory (default: ./model-registry)")
        if name == "show":
            sub.add_argument("version", help="checkpoint version id, e.g. v-0123abcd4567")
        if name == "rollback":
            sub.add_argument("tier", help="tier name whose current version to demote")

    # -- telemetry --------------------------------------------------------------

    obs = subparsers.add_parser(
        "obs",
        help="inspect telemetry written by --telemetry runs "
        "(trace.jsonl digests, live top/tail views)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="print a digest of one run's trace.jsonl (top spans, tier "
        "utilization, latency percentiles, overload, adaptation timeline, "
        "fault activations); sharded run directories aggregate every "
        "shard-NN/ sink",
    )
    summarize.add_argument(
        "path",
        help="a trace.jsonl file or the telemetry directory holding one "
        "(possibly with shard-NN/ subdirectories)",
    )
    top = obs_sub.add_parser(
        "top",
        help="render a refreshing digest of a telemetered run (tier "
        "utilization, queue depth, rolling p99 vs SLO, active alerts); "
        "follows a live run's trace.jsonl.tmp as it grows",
    )
    top.add_argument(
        "path",
        help="a trace.jsonl file or the telemetry directory of a running "
        "or finished telemetered run",
    )
    top.add_argument("--follow", action="store_true",
                     help="keep refreshing until the run finalizes its trace "
                     "(or --duration elapses)")
    top.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                     help="refresh interval while following (default 1.0)")
    top.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                     help="stop following after this many seconds (implies "
                     "--follow)")
    top.add_argument("--slo-ms", type=float, default=None, metavar="MS",
                     help="annotate the rolling p99 with this SLO bound")
    tail = obs_sub.add_parser(
        "tail",
        help="print trace records as human-readable lines, optionally "
        "following a live run",
    )
    tail.add_argument(
        "path",
        help="a trace.jsonl file or the telemetry directory holding one",
    )
    tail.add_argument("--follow", action="store_true",
                      help="keep polling for new records until the run "
                      "finalizes its trace (or --duration elapses)")
    tail.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                      help="poll interval while following (default 0.5)")
    tail.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                      help="stop following after this many seconds (implies "
                      "--follow)")

    list_parser = subparsers.add_parser("list", help="list the registered scenarios")
    list_parser.add_argument(
        "--verbose", action="store_true",
        help="multi-line listing with descriptions, tags and workload summaries",
    )

    describe = subparsers.add_parser(
        "describe", help="show a scenario's description and full spec as JSON"
    )
    describe.add_argument("scenario", help="scenario name, e.g. univariate-power")

    return parser


def _report(result, args: argparse.Namespace, report_name: Optional[str] = None) -> None:
    if not args.quiet:
        print(format_table([row.as_dict() for row in result.table1_rows],
                           title=f"Table I ({result.dataset_name})"))
        print()
        print(format_table([row.as_dict() for row in result.table2_rows],
                           title=f"Table II ({result.dataset_name})"))
        print()
    if args.output_dir:
        paths = write_report(result, args.output_dir, name=report_name)
        if not args.quiet:
            print(f"Wrote {paths['json']} and {paths['markdown']}")


def _load_spec_file(path: str):
    """An :class:`ExperimentSpec` from a JSON file; CLI errors stay one-liners."""
    from repro.experiments import ExperimentSpec

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise ReproError(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed spec JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"spec file {path} must hold a JSON object, not "
                         f"{type(payload).__name__}")
    return ExperimentSpec.from_dict(payload)


def _resolve_spec(
    args: argparse.Namespace,
    default_adapt: bool = False,
    default_serve: bool = False,
):
    """The scenario (or ``--spec-file``) spec with ``--seed``/``--set`` applied.

    ``default_adapt`` honours the ``fleet --adapt`` flag and ``default_serve``
    the ``serve`` subcommand: a default :class:`AdaptSpec`/:class:`ServingSpec`
    is attached *before* the dotted overrides, so ``--set adapt.*`` /
    ``--set serve.*`` lands on the node just created.
    """
    spec_file = getattr(args, "spec_file", None)
    if (args.scenario is None) == (spec_file is None):
        raise ReproError(
            "pass exactly one of a scenario name or --spec-file "
            "(see 'repro list' for scenarios)"
        )
    spec = _load_spec_file(spec_file) if spec_file else get_scenario(args.scenario)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    if default_adapt and getattr(args, "adapt", False) and spec.adapt is None:
        spec = replace(spec, adapt=AdaptSpec())
    if default_serve and spec.serve is None:
        spec = replace(spec, serve=ServingSpec())
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        from repro.obs.spec import ObsSpec

        # Sugar for --set obs.dir=DIR, applied before the dotted overrides so
        # --set obs.trace=false still lands on the node just materialised.
        obs = spec.obs if spec.obs is not None else ObsSpec()
        spec = replace(spec, obs=replace(obs, dir=str(telemetry_dir)))
    overrides = parse_set_arguments(args.overrides)
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec


def _finalize_telemetry(runner, args: argparse.Namespace) -> None:
    """Flush a runner's telemetry session to disk and point the user at it."""
    telemetry = runner.telemetry
    if telemetry is None:
        return
    paths = telemetry.finalize()
    if paths and not getattr(args, "quiet", False):
        print(f"Telemetry: {paths['trace'].parent}")


def _ensure_telemetry(runner) -> None:
    """Give the runner an in-memory telemetry session if it has none.

    ``--watch`` and ``--profile`` read the registry; with no ``--telemetry``
    directory the session lives in memory only — the run still streams
    bit-identical (telemetry never draws RNG).
    """
    if runner.telemetry is None:
        from repro.obs.export import Telemetry

        runner.telemetry = Telemetry()


def _attach_watch(runner, args: argparse.Namespace, serving: bool = False) -> None:
    """Wire ``--watch N`` onto the runner's telemetry session: rolling health
    lines and alert evaluation."""
    watch = getattr(args, "watch", None)
    if watch is None:
        return
    if watch < 1:
        raise ReproError(f"--watch must be a positive cadence, got {watch}")
    from repro.obs.alerts import default_fleet_rules, default_serving_rules
    from repro.obs.live import RollupWatcher

    _ensure_telemetry(runner)
    if serving:
        rules = default_serving_rules(runner.spec.serve)
        label = "serve"
    else:
        rules = default_fleet_rules()
        label = "fleet"
    runner.telemetry.watcher = RollupWatcher(
        runner.telemetry,
        rules=rules,
        every=watch,
        label=label,
        printer=print,
    )


def _run_scenario(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    if args.spec_only:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    runner = ExperimentRunner(spec)
    result = runner.run()
    _report(result, args, report_name=f"report_{args.scenario or spec.name}")
    _finalize_telemetry(runner, args)
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args, default_adapt=True)
    if spec.fleet is None:
        fleet_names = ", ".join(SCENARIOS.names(tags=("fleet",))) or "none registered"
        raise ReproError(
            f"scenario {args.scenario or spec.name!r} has no fleet workload; "
            f"fleet scenarios: {fleet_names}"
        )
    if args.shards is not None:
        spec = apply_overrides(spec, {"fleet.n_shards": args.shards})
    if args.spec_only:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.checkpoint_dir is None and (args.checkpoint_cadence or args.resume):
        raise ReproError(
            "--checkpoint-cadence/--resume need --checkpoint-dir (where the "
            "checkpoints live)"
        )
    registry_root = args.registry
    if (
        registry_root is None
        and args.output_dir
        and spec.adapt is not None
        and spec.adapt.registry_dir is None
        # An explicit adapt.registry_dir on the spec wins over the
        # --output-dir-derived default (only --registry outranks it).
    ):
        registry_root = str(Path(args.output_dir) / "registry")
    runner = ExperimentRunner(spec)
    _attach_watch(runner, args, serving=False)
    if args.profile:
        _ensure_telemetry(runner)
    report = runner.run_fleet(
        registry_root=registry_root,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_cadence=args.checkpoint_cadence,
        resume=args.resume,
    )
    _print_fleet_report(report, runner, args, name=args.scenario or spec.name)
    if args.profile:
        # --quiet suppresses the report summary, not the breakdown the
        # user explicitly asked for with --profile.
        print(_stage_breakdown(runner.telemetry.registry, spec.fleet.ticks))
    _finalize_telemetry(runner, args)
    return 0


_STAGE_LABELS = {
    "arrivals": "arrivals (device draws + window assembly)",
    "context_policy": "context + policy (extract, select actions)",
    "detect": "detect (detector forward, scoring, delays)",
    "metrics": "metrics (online aggregation)",
    "adapt": "adapt (controller feed + tick boundary)",
}


def _stage_breakdown(registry, ticks: int) -> str:
    """The ``--profile`` breakdown of a streamed run, read from its registry.

    One source: the same ``fleet_stage_seconds_total`` / ``fleet_run_seconds_total``
    / ``fleet_windows_total`` counters ``--telemetry`` exports.
    """
    stage_seconds = registry.get("fleet_stage_seconds_total")
    total = registry.get("fleet_run_seconds_total").value()
    n_windows = int(registry.get("fleet_windows_total").value())
    lines = ["per-stage wall-clock breakdown:"]
    accounted = 0.0
    for stage in STAGES:
        seconds = stage_seconds.value(stage=stage)
        accounted += seconds
        lines.append(
            f"  {_STAGE_LABELS[stage]:<50s} {seconds:8.3f} s  "
            f"({100.0 * seconds / total:5.1f}%)"
        )
    other = max(0.0, total - accounted)
    lines.append(
        f"  {'other (fleet construction, engine glue)':<50s} "
        f"{other:8.3f} s  ({100.0 * other / total:5.1f}%)"
    )
    lines.append(f"  {'total':<50s} {total:8.3f} s")
    lines.append(
        f"  throughput: {n_windows / total:,.0f} windows/s "
        f"({n_windows} windows over {ticks} ticks)"
    )
    return "\n".join(lines)


def _print_fleet_report(report, runner, args, name: str) -> None:
    """Shared summary/JSON-report tail of ``repro fleet`` and ``repro resume``."""
    if not args.quiet:
        print(report.summary())
        controller = runner.state.adaptation_controller
        if controller is not None:
            if controller.registry_is_ephemeral:
                print(
                    "Model registry: run-scoped (discarded on exit; pass "
                    "--registry or --output-dir to keep the checkpoints)"
                )
            else:
                print(f"Model registry: {controller.registry.root}")
    if args.output_dir:
        path = Path(args.output_dir) / f"fleet_{name}.json"
        report.to_json(path)
        if not args.quiet:
            print(f"Wrote {path}")


def _run_serve(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args, default_serve=True)
    if spec.fleet is None:
        serve_names = ", ".join(SCENARIOS.names(tags=("serving",))) or "none registered"
        raise ReproError(
            f"scenario {args.scenario or spec.name!r} has no fleet node to draw "
            f"serving traffic from; serving scenarios: {serve_names}"
        )
    if args.spec_only:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    runner = ExperimentRunner(spec)
    _attach_watch(runner, args, serving=True)
    report = runner.run_serve(hot_swap=args.hot_swap)
    if not args.quiet:
        print(report.summary())
    if args.output_dir:
        path = Path(args.output_dir) / f"serving_{args.scenario or spec.name}.json"
        report.to_json(path)
        if not args.quiet:
            print(f"Wrote {path}")
    _finalize_telemetry(runner, args)
    return 0


def _run_qualify(args: argparse.Namespace) -> int:
    from repro.fleet.qualify import (
        QualifySpec,
        apply_qualify_overrides,
        run_qualification,
    )

    spec = QualifySpec(pack=args.pack, scenario=args.scenario)
    overrides = parse_set_arguments(args.overrides)
    if overrides:
        spec = apply_qualify_overrides(spec, overrides)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    telemetry = None
    if args.telemetry:
        from repro.obs.export import Telemetry

        telemetry = Telemetry(out_dir=args.telemetry, name=f"qualify-{spec.pack}")
    printer = None if args.quiet else print
    report = run_qualification(spec, telemetry=telemetry, printer=printer)
    if telemetry is not None:
        telemetry.finalize()
    if not args.quiet:
        print(report.summary())
    if args.output_dir:
        path = Path(args.output_dir) / f"qualify_{spec.pack}.json"
        report.to_json(path)
        if not args.quiet:
            print(f"Wrote {path}")
    return 0 if report.passed else 1


def _run_resume(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSpec
    from repro.fleet.checkpoint import load_run_descriptor

    descriptor = load_run_descriptor(args.checkpoint_dir)
    try:
        spec = ExperimentSpec.from_dict(descriptor["spec"])
    except KeyError as exc:
        raise ReproError(
            f"run descriptor in {args.checkpoint_dir} has no 'spec' entry"
        ) from exc
    runner = ExperimentRunner(spec)
    report = runner.run_fleet(
        registry_root=descriptor.get("registry_root"),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_cadence=int(descriptor.get("checkpoint_cadence", 0)),
        resume=True,
    )
    _print_fleet_report(report, runner, args, name=spec.name)
    return 0


def _run_models(args: argparse.Namespace) -> int:
    if not Path(args.registry).is_dir():
        raise ReproError(
            f"no model registry at {args.registry!r} (adaptive fleet runs create "
            "one; point --registry at it)"
        )
    registry = ModelRegistry(args.registry)
    if args.models_command == "show":
        print(json.dumps(registry.show(args.version).to_dict(), indent=2, sort_keys=True))
        return 0
    if args.models_command == "rollback":
        current = registry.rollback(args.tier)
        print(f"tier {args.tier}: rolled back to {current}")
        return 0
    versions = registry.versions()
    if not versions:
        print(f"No checkpoints in registry {registry.root}")
        return 0
    tiers = sorted({meta.tier for meta in versions})
    print(f"Registry {registry.root}: {len(versions)} checkpoint(s)")
    for tier in tiers:
        current = registry.current(tier)
        print(f"  tier {tier} (lineage: {' -> '.join(registry.lineage(tier)) or 'none'})")
        for meta in versions:
            if meta.tier != tier:
                continue
            marker = "*" if meta.version == current else " "
            quantized = "fp16" if meta.quantization else "fp32"
            window = (
                f"ticks {meta.training_window[0]}-{meta.training_window[1]}"
                if meta.training_window else "offline"
            )
            print(
                f"   {marker} {meta.version}  parent={meta.parent or '-':<15s} "
                f"{quantized}  {meta.parameter_count} params  {window}"
            )
    print("\n(* = currently promoted)")
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        from repro.obs.summary import summarize_trace

        print(summarize_trace(args.path))
        return 0
    if args.obs_command == "tail":
        return _obs_tail(args)
    return _obs_top(args)


def _follow_loop(args: argparse.Namespace, step) -> int:
    """Shared poll loop of ``obs top``/``obs tail``.

    ``step(records)`` consumes one poll's records.  One-shot without
    ``--follow``/``--duration``; otherwise polls every ``--interval`` seconds
    until the trace finalizes and drains, or ``--duration`` elapses.
    """
    import time

    from repro.obs.export import TraceFollower

    follower = TraceFollower(args.path)
    follow = args.follow or args.duration is not None
    deadline = (
        time.monotonic() + args.duration if args.duration is not None else None
    )
    while True:
        records = follower.poll()
        step(records)
        if not follow:
            return 0
        if follower.finalized and not records:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        time.sleep(args.interval)


def _obs_top(args: argparse.Namespace) -> int:
    from repro.obs.live import TopView

    view = TopView(slo_p99_ms=args.slo_ms)

    def step(records) -> None:
        view.update(records)
        print(view.render())
        print()

    return _follow_loop(args, step)


def _obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.live import format_tail_line

    def step(records) -> None:
        for record in records:
            print(format_tail_line(record))

    return _follow_loop(args, step)


def _list_scenarios(verbose: bool = False) -> int:
    print("Registered scenarios:")
    for entry in SCENARIOS.entries():
        if verbose:
            tags = f"  [{', '.join(entry.tags)}]" if entry.tags else ""
            print(f"  {entry.name}{tags}")
            if entry.description:
                print(f"      {entry.description}")
            spec = SCENARIOS.spec(entry.name)
            workload = (
                f"source={spec.data.source}  layers={spec.topology.n_layers}  "
                f"seed={spec.seed}"
            )
            if spec.fleet is not None:
                workload += (
                    f"  fleet={spec.fleet.n_devices} devices x {spec.fleet.ticks} ticks"
                )
            if spec.adapt is not None:
                workload += f"  adapt={'/'.join(spec.adapt.monitors)}"
            if spec.serve is not None:
                workload += (
                    f"  serve={spec.serve.offered_rps:g} rps "
                    f"(p99 SLO {spec.serve.slo_p99_ms:g} ms)"
                )
            print(f"      {workload}")
        else:
            tags = f"  [{', '.join(entry.tags)}]" if entry.tags else ""
            print(f"  {entry.name:<28s} {entry.description}{tags}")
    print()
    print("Run one with: python -m repro.cli run <scenario> [--set dotted.key=value ...]")
    print("Stream a [fleet] scenario with: python -m repro.cli fleet <scenario>")
    return 0


def _describe_scenario(args: argparse.Namespace) -> int:
    described = SCENARIOS.describe(args.scenario)
    print(f"Scenario: {described['name']}")
    if described["description"]:
        print(f"Description: {described['description']}")
    if described["tags"]:
        print(f"Tags: {', '.join(described['tags'])}")
    # The optional nodes get an explicit one-line summary each, so fleet and
    # adapt scenarios are recognisable without reading the full spec dump.
    fleet = described["fleet"]
    if fleet is not None:
        mutators = ", ".join(m["kind"] for m in fleet["mutators"]) or "none"
        print(
            f"Fleet: {fleet['n_devices']} devices x {fleet['ticks']} ticks "
            f"(mutators: {mutators})"
        )
    adapt = described["adapt"]
    if adapt is not None:
        print(
            f"Adapt: monitors {', '.join(adapt['monitors'])}; retrain "
            f"{adapt['retrain_epochs']} epochs behind the shadow gate"
        )
    serve = described["serve"]
    if serve is not None:
        print(
            f"Serve: {serve['offered_rps']:g} rps offered, micro-batch "
            f"{serve['max_batch']}/{serve['max_wait_ms']:g} ms, p99 SLO "
            f"{serve['slo_p99_ms']:g} ms ({serve['shed_policy']} shedding)"
        )
    print()
    print("Spec (valid --set keys are the dotted paths into this document):")
    print(json.dumps(described["spec"], indent=2, sort_keys=True))
    return 0


def run_command(args: argparse.Namespace) -> int:
    """Execute one parsed CLI command; returns a process exit code."""
    if args.command == "run":
        return _run_scenario(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "qualify":
        return _run_qualify(args)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "models":
        return _run_models(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "list":
        return _list_scenarios(verbose=getattr(args, "verbose", False))
    # argparse admits no other subcommand, so this is "describe".
    return _describe_scenario(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = run_command(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout is gone (``repro list | head``).  Point stdout
        # at devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
