"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run a simulation and export tickets/inventory CSVs.
* ``report``   — regenerate one (or all) of the paper's tables/figures.
* ``corrupt``  — export a degraded (optionally re-cleaned) field dataset.
* ``sweep``    — multi-seed robustness sweep (``--noise`` adds severities).
* ``stream``   — replay an exported directory through the online
  streaming analyzers (windowed λ/μ, SLA-risk and drift alerts,
  checkpoint/resume, ``--follow`` for growing exports).
* ``predict``  — online failure prediction: ``train`` prints headline
  metrics, ``score`` renders the full evaluation (ranking + proactive
  TCO vs reactive), ``follow`` replays the stream with the live
  predictive monitor attached and prints its alerts.
* ``autonomics`` — closed-loop controllers over a stepping simulation
  session: run one policy and print its SLA/TCO score, or ``--compare``
  the built-in policies on the same seed.
* ``lint``     — run the domain-aware static checks (``repro.staticcheck``)
  over the package (or given paths); exit 1 on new findings.
* ``list``     — list the registered experiments (``--format json`` adds
  each experiment's declared pipeline stage dependencies).
* ``pipeline`` — inspect the artifact pipeline: ``dag`` (stage catalogue
  with content keys), ``manifest`` (provenance of the last report run),
  ``prune`` (bound the artifact store).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from .config import SimulationConfig
from .datacenter.builder import FleetConfig
from .reporting import AnalysisContext, EXPERIMENTS, get_experiment
from .telemetry.io import export_inventory_csv, export_tickets_csv


def _jobs_arg(text: str) -> int:
    """``--jobs`` values: positive worker counts, or 0 for all cores."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 1 (or 0 for all cores), got {value}"
        )
    return value


def _seed_arg(text: str) -> int:
    """Seed values: non-negative (the RNG rejects negatives downstream)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {value}")
    return value


def _build_config(args: argparse.Namespace, seed: int | None = None) -> SimulationConfig:
    return SimulationConfig(
        seed=args.seed if seed is None else seed,
        n_days=args.days,
        fleet=FleetConfig(scale=args.scale, observation_days=args.days),
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_arg, default=0,
                        help="master RNG seed (default 0)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="fraction of the paper's 331+290 racks "
                             "(default 0.25; 1.0 = paper scale)")
    parser.add_argument("--days", type=int, default=365,
                        help="observation window in days (default 365; "
                             "paper: 910)")


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
                        help="artifact store shared by simulate, report, "
                             "corrupt, predict, sweep and pipeline "
                             "(default: $REPRO_CACHE_DIR if set, else no "
                             "caching)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the artifact store even if "
                             "--cache-dir / $REPRO_CACHE_DIR is set")


def _store_dir(args: argparse.Namespace) -> str | None:
    """The artifact-store directory, or None for a memory-only store."""
    return None if (args.no_cache or not args.cache_dir) else str(args.cache_dir)


def _simulate(args: argparse.Namespace, seed: int | None = None,
              note_hit: bool = False):
    """The run, resolved through the store's ``simulate`` stage
    (memory-only without --cache-dir); ``note_hit`` says on stderr when
    the store served it."""
    from .pipeline import ArtifactStore, Pipeline, simulate_stage
    from .reporting.context import SIMULATE_STAGE

    pipeline = Pipeline(
        [simulate_stage(_build_config(args, seed=seed))],
        store=ArtifactStore(_store_dir(args)),
    )
    result = pipeline.get(SIMULATE_STAGE)
    if note_hit and pipeline.executions[0].outcome != "computed":
        print("(loaded from run cache)", file=sys.stderr)
    return result


def _export_run(result, out_dir: pathlib.Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    n_tickets = export_tickets_csv(result, out_dir / "tickets.csv")
    n_racks = export_inventory_csv(result, out_dir / "inventory.csv")
    print(f"wrote {n_tickets} tickets to {out_dir / 'tickets.csv'}")
    print(f"wrote {n_racks} racks to {out_dir / 'inventory.csv'}")


def _simulate_seed_to_dir(seed: int, args: argparse.Namespace) -> str:
    """Worker for multi-seed export: simulate one seed into out/seed-N/."""
    result = _simulate(args, seed=seed)
    out_dir = pathlib.Path(args.out) / f"seed-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    export_tickets_csv(result, out_dir / "tickets.csv")
    export_inventory_csv(result, out_dir / "inventory.csv")
    return result.summary()


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seeds:
        import functools

        from .parallel import map_seeds

        summaries = map_seeds(
            functools.partial(_simulate_seed_to_dir, args=args),
            args.seeds, jobs=args.jobs,
        )
        for seed, summary in zip(args.seeds, summaries):
            print(f"seed {seed}: {summary}")
            print(f"  wrote {pathlib.Path(args.out) / f'seed-{seed}'}/"
                  "{tickets,inventory}.csv")
        return 0
    result = _simulate(args, note_hit=True)
    print(result.summary())
    _export_run(result, pathlib.Path(args.out))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .pipeline import ArtifactStore, build_report_pipeline
    from .reporting.context import SIMULATE_STAGE, SUMMARY_STAGE

    wanted = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in wanted:
        get_experiment(experiment_id)  # validate before simulating
    config = _build_config(args)
    cache_dir = _store_dir(args)
    store = ArtifactStore(cache_dir)
    pipeline = build_report_pipeline(config, store=store, experiment_ids=wanted)

    # The summary stage is cached text, so a warm store serves the
    # header — and the whole report — without materializing the run.
    summary = pipeline.get(SUMMARY_STAGE)
    worker_executions: list = []
    if args.out is not None:
        from .reporting.report import write_report

        path = write_report(None, args.out, experiment_ids=wanted,
                            jobs=args.jobs, cache_dir=cache_dir,
                            pipeline=pipeline,
                            executions_sink=worker_executions.extend,
                            summary=summary)
    else:
        from .parallel import run_experiments

        rendered = run_experiments(
            wanted, config=config, jobs=args.jobs, cache_dir=cache_dir,
            pipeline=pipeline, executions_sink=worker_executions.extend,
        )
    simulated = any(
        execution.stage == SIMULATE_STAGE and execution.outcome == "computed"
        for execution in list(pipeline.executions) + worker_executions
    )
    if not simulated:
        print("(loaded from run cache)", file=sys.stderr)
    print(summary, "\n", file=sys.stderr)
    if args.out is not None:
        print(f"wrote {path}")
    else:
        for experiment_id, text, error in rendered:
            print(text if text is not None
                  else f"{experiment_id}: (not computable on this run: {error})")
            print()
    if store.root is not None:
        pipeline.write_manifest(extra_executions=worker_executions)
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    from .fielddata import (
        FieldDataset, clean_dataset, export_dataset, standard_pipeline,
    )

    dataset = FieldDataset.from_result(_simulate(args, note_hit=True))
    seed = args.corruption_seed if args.corruption_seed is not None else args.seed
    corrupted, report = standard_pipeline(args.severity, seed=seed).apply(dataset)
    print(report.render())
    if args.clean:
        corrupted, cleaning = clean_dataset(corrupted)
        print(cleaning.render())
    paths = export_dataset(corrupted, args.out)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = args.seeds
    if args.noise is not None:
        from .reporting.sweeps import render_noise_sweep, run_noise_sweep

        by_severity = run_noise_sweep(
            seeds, args.noise, scale=args.scale, n_days=args.days,
            jobs=args.jobs, cache_dir=_store_dir(args),
        )
        print(render_noise_sweep(by_severity, seeds))
        return 0
    from .reporting.sweeps import render_sweep, run_sweep

    summaries = run_sweep(seeds, scale=args.scale, n_days=args.days,
                          jobs=args.jobs,
                          cache_dir=_store_dir(args))
    print(render_sweep(summaries, seeds))
    return 0


def _render_stream_summary(summary: dict) -> str:
    lines = [
        f"events seen        : {summary['events_seen']}",
        f"stream time        : {summary['last_time_hours']:.1f} h",
        f"racks in service   : {summary['racks_in_service']}",
        f"tickets counted (λ): {summary['tickets_counted']}",
        f"μmax ({summary['window_hours']:g}h windows) : {summary['mu_max']}",
        "per-SKU totals     : " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary["per_sku_total"].items())
        ),
        "per-DC totals      : " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary["per_dc_total"].items())
        ),
        f"alerts             : {len(summary['alerts'])}",
    ]
    for alert in summary["alerts"]:
        lines.append(
            f"  [{alert['kind']}] t={alert['time_hours']:.1f}h "
            f"{alert['message']}"
        )
    return "\n".join(lines)


def _cmd_stream(args: argparse.Namespace) -> int:
    from .decisions.availability import AvailabilitySla
    from .stream import (
        EventKind,
        StreamAnalyzer,
        StreamingMu,
        blocks_from_directory,
        calibrated_spare_fraction,
        directory_inventory,
        follow_directory,
        load_checkpoint,
        save_checkpoint,
    )

    config = _build_config(args)
    in_dir = pathlib.Path(args.in_dir)
    inventory = directory_inventory(in_dir, config)
    sla = AvailabilitySla(args.sla)

    if args.resume:
        analyzer = load_checkpoint(args.resume, inventory)
        print(f"(resumed at event {analyzer.events_seen})", file=sys.stderr)
    else:
        fraction = args.spare_fraction
        if fraction is None:
            # Calibrate from the export's own μ history so a pristine
            # replay is provably alert-free; stressed provisioning is
            # an explicit --spare-fraction choice.
            mu = StreamingMu(
                inventory.n_servers, inventory.server_base,
                inventory.n_days, window_hours=args.window_hours,
            )
            if (in_dir / "tickets.csv").exists():
                for block in blocks_from_directory(
                    in_dir, config, kinds={EventKind.TICKET_OPEN},
                ):
                    mu.update_block(block)
                fraction = calibrated_spare_fraction(
                    mu.matrix(), inventory.n_servers, sla,
                )
            else:
                fraction = 0.0
            print(f"(calibrated spare fraction {fraction:.4f})",
                  file=sys.stderr)
        analyzer = StreamAnalyzer(
            inventory, window_hours=args.window_hours, sla=sla,
            spare_fraction=fraction, drift_ratio=args.drift_ratio,
        )

    if args.follow:
        blocks = follow_directory(
            in_dir, config, poll_interval=args.poll_interval,
            max_idle_polls=args.max_idle_polls, skip=analyzer.events_seen,
        )
    else:
        blocks = blocks_from_directory(in_dir, config,
                                       skip=analyzer.events_seen)
    processed = analyzer.consume_blocks(blocks, max_events=args.max_events)
    truncated = args.max_events is not None and processed >= args.max_events

    if args.checkpoint:
        path = save_checkpoint(analyzer, args.checkpoint)
        print(f"wrote checkpoint {path} at event {analyzer.events_seen}",
              file=sys.stderr)
    if not truncated:
        analyzer.finish()
    print(_render_stream_summary(analyzer.summary()))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .predict import build_feature_dataset, train_predictor
    from .predict.experiment import compute_predict_payload, render_predict
    from .predict.scoring import score_predictions

    result = _simulate(args)
    if args.action == "score":
        payload = compute_predict_payload(result, horizon_days=args.horizon)
        print(render_predict(payload))
        return 0

    dataset = build_feature_dataset(result, horizon_days=args.horizon)
    model, train, test = train_predictor(dataset, horizon_days=args.horizon)
    if args.action == "train":
        metrics = score_predictions(model, test)
        auc = metrics["auc"]
        print(f"trained on {train.n_rows} rows "
              f"({args.horizon}-day horizon), eval on {test.n_rows}")
        print(f"AUC {'n/a' if auc is None else format(auc, '.3f')}, "
              f"base rate {metrics['base_rate']:.3%}")
        for point in metrics["curves"]:
            print(f"  act {point['act_fraction']:.0%}: "
                  f"precision {point['precision']:.3f}, "
                  f"recall {point['recall']:.3f}")
        return 0

    # follow: replay the stream with the live monitor attached.  The
    # model saw only the chronological training prefix, so alerts in
    # the evaluation period are out-of-sample predictions.
    from .predict import PredictiveMonitor
    from .stream import StreamAnalyzer
    from .stream.blocks import StreamInventory, blocks_from_result
    from .stream.triggers import AlertKind

    inventory = StreamInventory.from_result(result)
    monitor = PredictiveMonitor(inventory, model, threshold=args.threshold)
    analyzer = StreamAnalyzer(inventory)
    analyzer.attach_monitor(monitor)

    def emit(alerts) -> None:
        for alert in alerts:
            if alert.kind is AlertKind.PREDICTED_FAILURE:
                print(f"[{alert.kind.value}] t={alert.time_hours:.1f}h "
                      f"{alert.message}")

    for block in blocks_from_result(result):
        emit(analyzer.process_block(block))
    emit(analyzer.finish())
    print(f"{monitor.alerts_emitted} predicted-failure alerts over "
          f"{analyzer.events_seen} events "
          f"(threshold {args.threshold:g})", file=sys.stderr)
    return 0


def _cmd_autonomics(args: argparse.Namespace) -> int:
    from .autonomics import make_controller, run_policy, train_shakedown_predictor
    from .autonomics.experiment import (
        DEFAULT_POLICIES,
        compute_autonomics_payload,
        render_autonomics,
    )

    config = _build_config(args)
    if args.compare:
        policies = tuple(dict.fromkeys(args.policy or ())) or DEFAULT_POLICIES
        payload = compute_autonomics_payload(config, policies=policies)
        print(render_autonomics(payload))
        verdict = payload.get("verdict")
        if verdict is not None and not (
            verdict["predictive_beats_reactive_sla"]
            and verdict["predictive_tco_leq_reactive"]
        ):
            return 1
        return 0

    policy_id = args.policy[0] if args.policy else "predictive"
    controller = make_controller(policy_id)
    predictor = None
    if controller.wants_predictions:
        predictor = train_shakedown_predictor(config, horizon_days=args.horizon)
    outcome = run_policy(config, controller, predictor=predictor)
    row = outcome.score_row()
    print(f"policy {row['policy']}: SLA attainment "
          f"{row['sla_attainment']:.2%} "
          f"({row['breach_rack_days']} breach rack-days), "
          f"TCO {row['tco_units']:.0f} units")
    print(f"  spares ordered {row['spare_servers_ordered']} "
          f"(mean fraction {row['mean_spare_fraction']:.3f}), "
          f"{row['n_interventions']} interventions, "
          f"{row['failures_prevented']:.1f} failures prevented")
    print(f"  {row['n_alerts']} alerts -> {row['n_actions']} actions")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck import (
        all_rules, lint_paths, load_baseline, render_json, render_sarif,
        render_text, write_baseline,
    )
    from .staticcheck.runner import select_rules
    from .staticcheck.wholeprogram import all_wholeprogram_rules

    if args.list_rules:
        for rule in list(all_rules()) + list(all_wholeprogram_rules()):
            print(f"{rule.id:15s} {rule.title}")
            print(f"{'':15s} {rule.rationale}")
        return 0
    if args.migrate_baseline:
        from .staticcheck.baselines import migrate_baseline

        path = migrate_baseline(args.baseline)
        print(f"migrated baseline {path} to fingerprint schema 2")
        return 0
    rules = wp_rules = None
    if args.rules:
        rules, wp_rules = select_rules(args.rules)
    if (args.baseline and args.write_baseline
            and not pathlib.Path(args.baseline).exists()):
        baseline = None  # creating a brand-new baseline file
    else:
        baseline = load_baseline(args.baseline)
    paths = [pathlib.Path(p) for p in args.paths] or None
    cache_dir = args.cache_dir or os.environ.get("REPRO_LINT_CACHE")
    report = lint_paths(paths, rules=rules, baseline=baseline,
                        wp_rules=wp_rules, cache_dir=cache_dir,
                        jobs=args.jobs)
    if args.write_baseline:
        from .staticcheck.baselines import DEFAULT_BASELINE_PATH

        target = args.baseline or DEFAULT_BASELINE_PATH
        path = write_baseline(target, report.all_findings, previous=baseline,
                              rationale=args.rationale)
        print(f"wrote baseline {path} ({len(report.all_findings)} entries)")
        return 0
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose_rules=args.verbose))
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import run_server

    return run_server(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        workers=args.workers,
        timeout_s=args.timeout,
        drain_timeout_s=args.drain_timeout,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "format", "text") == "json":
        import json

        payload = {
            "schema": 1,
            "experiments": [
                {
                    "id": experiment_id,
                    "description": experiment.description,
                    "stages": list(experiment.stages),
                    "code": list(experiment.code),
                }
                for experiment_id, experiment in sorted(EXPERIMENTS.items())
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for experiment_id in sorted(EXPERIMENTS):
        print(f"{experiment_id:8s} {EXPERIMENTS[experiment_id].description}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import json

    from .pipeline import ArtifactStore, build_report_pipeline

    cache_dir = _store_dir(args)
    if args.action == "dag":
        pipeline = build_report_pipeline(_build_config(args))
        stages = pipeline.manifest()["stages"]
        if args.format == "json":
            print(json.dumps({"schema": 1, "stages": stages}, indent=2,
                             sort_keys=True))
            return 0
        for name in pipeline.order:
            stage = stages[name]
            deps = ", ".join(stage["deps"]) if stage["deps"] else "-"
            codec = stage["codec"] or "memory"
            print(f"{name:28s} key={stage['key']}  codec={codec:6s}  <- {deps}")
        return 0
    if args.action == "prune":
        if not cache_dir:
            print("pipeline prune needs --cache-dir (or $REPRO_CACHE_DIR)",
                  file=sys.stderr)
            return 1
        from .pipeline import DEFAULT_MAX_ENTRIES

        bound = (args.max_entries if args.max_entries is not None
                 else DEFAULT_MAX_ENTRIES)
        removed = ArtifactStore(cache_dir).prune(bound)
        print(f"pruned {removed} artifact entries under {cache_dir}")
        return 0
    # manifest: read back the provenance written by the last report run.
    if not cache_dir:
        print("pipeline manifest needs --cache-dir (or $REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 1
    manifest_path = pathlib.Path(cache_dir) / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest at {manifest_path} (run `repro report` with "
              "this --cache-dir first)", file=sys.stderr)
        return 1
    payload = json.loads(manifest_path.read_text())
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    executions = payload.get("executions", [])
    print(f"pipeline manifest (schema {payload.get('schema')}, "
          f"version {payload.get('version')}): "
          f"{len(executions)} stage executions")
    for execution in executions:
        print(f"  [{execution['outcome']:8s}] {execution['stage']:28s} "
              f"key={execution['key']}  {execution['wall_s']*1000:9.2f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Rain or Shine?' (ICDCS 2017): "
                    "datacenter reliability simulation and multi-factor "
                    "analysis.",
    )
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="simulate and export CSVs")
    _add_config_arguments(sim)
    sim.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="worker processes for --seeds, one seed each "
                          "(default 1 = serial; 0 = all cores)")
    _add_store_arguments(sim)
    sim.add_argument("--out", default="simdata",
                     help="output directory (default ./simdata)")
    sim.add_argument("--seeds", type=_seed_arg, nargs="+", default=None,
                     help="simulate several seeds (exported to "
                          "OUT/seed-N/); overrides --seed")
    sim.set_defaults(func=_cmd_simulate)

    report = commands.add_parser(
        "report", help="regenerate a paper table/figure (or 'all')",
    )
    report.add_argument("experiment",
                        help="experiment id, e.g. table2 or fig10 or all")
    _add_config_arguments(report)
    report.add_argument("--jobs", type=_jobs_arg, default=1,
                        help="worker processes rendering experiments "
                             "(default 1 = serial; 0 = all cores)")
    _add_store_arguments(report)
    report.add_argument("--out", default=None,
                        help="write a markdown report here instead of stdout")
    report.set_defaults(func=_cmd_report)

    corrupt = commands.add_parser(
        "corrupt",
        help="simulate, degrade the field data, and export the result",
    )
    _add_config_arguments(corrupt)
    _add_store_arguments(corrupt)
    corrupt.add_argument("--severity", type=float, default=0.5,
                         help="corruption severity in [0, 1] for every "
                              "operator (default 0.5; 0 = untouched)")
    corrupt.add_argument("--corruption-seed", type=int, default=None,
                         help="seed for the fielddata:* streams "
                              "(default: same as --seed)")
    corrupt.add_argument("--clean", action="store_true",
                         help="run the cleaning pipeline before exporting")
    corrupt.add_argument("--out", default="fielddata",
                         help="output directory (default ./fielddata)")
    corrupt.set_defaults(func=_cmd_corrupt)

    sweep = commands.add_parser(
        "sweep", help="robustness sweep of the headline conclusions",
    )
    sweep.add_argument("--seeds", type=_seed_arg, nargs="+", default=[11, 22, 33],
                       help="seeds to re-run (default: 11 22 33)")
    sweep.add_argument("--scale", type=float, default=0.3,
                       help="fleet scale per seed (default 0.3)")
    sweep.add_argument("--days", type=int, default=540,
                       help="window length per seed (default 540)")
    sweep.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes, one seed each "
                            "(default 1 = serial; 0 = all cores)")
    sweep.add_argument("--noise", type=float, nargs="+", default=None,
                       metavar="LEVEL",
                       help="corruption severities: degrade+clean each "
                            "seed's field data at these levels and "
                            "report metric drift (e.g. --noise 0 0.3 0.6 1)")
    _add_store_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    stream = commands.add_parser(
        "stream",
        help="replay an exported directory through the online analyzers",
    )
    _add_config_arguments(stream)
    stream.add_argument("--from", dest="in_dir", default="simdata",
                        help="exported run/field directory with tickets.csv "
                             "+ inventory.csv (default ./simdata); --seed/"
                             "--scale/--days must match how it was produced")
    stream.add_argument("--window-hours", type=float, default=24.0,
                        help="μ window length (default 24; 1 = hourly)")
    stream.add_argument("--sla", type=float, default=1.0,
                        help="availability SLA level in (0, 1] "
                             "(default 1.0)")
    stream.add_argument("--spare-fraction", type=float, default=None,
                        help="provisioned spare fraction for the SLA-risk "
                             "monitor (default: calibrate from the export's "
                             "own μ history — alert-free on pristine data)")
    stream.add_argument("--drift-ratio", type=float, default=2.0,
                        help="λ drift departure factor (default 2.0)")
    stream.add_argument("--max-events", type=int, default=None,
                        help="stop after N events (pair with --checkpoint)")
    stream.add_argument("--checkpoint", default=None,
                        help="write the analyzer state here after streaming")
    stream.add_argument("--resume", default=None,
                        help="resume from a --checkpoint bundle (skips the "
                             "already-processed prefix)")
    stream.add_argument("--follow", action="store_true",
                        help="poll the directory for appended tickets and "
                             "stream as they arrive; prints exactly what "
                             "one pass over the final export prints")
    stream.add_argument("--poll-interval", type=float, default=1.0,
                        help="--follow poll period in seconds (default 1)")
    stream.add_argument("--max-idle-polls", type=int, default=3,
                        help="--follow exits after this many polls with no "
                             "growth (default 3)")
    stream.set_defaults(func=_cmd_stream)

    predict = commands.add_parser(
        "predict",
        help="online failure prediction over the event stream",
    )
    predict.add_argument("action", choices=("train", "score", "follow"),
                         help="train: fit and print headline metrics; "
                              "score: render the full evaluation payload "
                              "(ranking + proactive TCO vs reactive); "
                              "follow: replay the stream with the live "
                              "predictive monitor and print its alerts")
    _add_config_arguments(predict)
    _add_store_arguments(predict)
    predict.add_argument("--horizon", type=int, default=3,
                         help="label horizon in days (default 3)")
    predict.add_argument("--threshold", type=float, default=0.6,
                         help="follow-mode alert threshold on the failure "
                              "score, in (0, 1) (default 0.6)")
    predict.set_defaults(func=_cmd_predict)

    autonomics = commands.add_parser(
        "autonomics",
        help="closed-loop controllers over a stepping simulation session",
    )
    _add_config_arguments(autonomics)
    autonomics.add_argument(
        "--policy", action="append", default=None,
        choices=("null", "reactive", "predictive", "threshold"),
        help="policy to run (repeatable; default: predictive, or the "
             "null/reactive/predictive shootout with --compare)")
    autonomics.add_argument(
        "--horizon", type=int, default=3,
        help="prediction horizon in days for the predictive policy's "
             "shakedown-trained model (default 3)")
    autonomics.add_argument(
        "--compare", action="store_true",
        help="replay the same seed under each policy and print the "
             "scored shootout (exit 1 if the predictive controller "
             "does not beat reactive on SLA at equal-or-lower TCO)")
    autonomics.set_defaults(func=_cmd_autonomics, policy=None)

    lint = commands.add_parser(
        "lint",
        help="run the repro.staticcheck domain rules (exit 1 on findings)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or package directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default text; json is the CI "
                           "contract)")
    lint.add_argument("--rules", nargs="+", default=None, metavar="RULE-ID",
                      help="run only these rule ids (default: all)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file of grandfathered findings "
                           "(default: the committed package baseline)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write all current findings to the baseline "
                           "(to --baseline, or the committed default) "
                           "instead of reporting")
    lint.add_argument("--rationale", default=None,
                      help="justification recorded for findings NEW to "
                           "the baseline (required with --write-baseline "
                           "when new findings are being grandfathered)")
    lint.add_argument("--verbose", action="store_true",
                      help="append rule rationales to the text report")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules (per-module and "
                           "whole-program) and exit")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="analyze uncached modules across N processes "
                           "(0 = all cores; output is byte-identical to "
                           "serial)")
    lint.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="content-addressed lint fragment cache; warm "
                           "runs re-analyze only changed modules "
                           "(default: $REPRO_LINT_CACHE if set)")
    lint.add_argument("--migrate-baseline", action="store_true",
                      help="one-shot rewrite of the baseline file (or the "
                           "committed default) from fingerprint schema 1 "
                           "to 2, then exit")
    lint.set_defaults(func=_cmd_lint)

    serve = commands.add_parser(
        "serve",
        help="run the reliability HTTP API (Q1/Q2/Q3 per fleet)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="port to bind; 0 picks a free one "
                            "(default 8787)")
    serve.add_argument("--store-dir", default=None,
                       help="artifact store shared by server and workers "
                            "(default: in-memory, single-process)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes for cold queries "
                            "(default: all cores)")
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="per-request budget in seconds (default 120)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="graceful-shutdown drain budget in seconds "
                            "(default 30)")
    serve.set_defaults(func=_cmd_serve)

    lister = commands.add_parser("list", help="list registered experiments")
    lister.add_argument("--format", choices=("text", "json"), default="text",
                        help="json includes each experiment's declared "
                             "pipeline stage dependencies (for DAG diffing)")
    lister.set_defaults(func=_cmd_list)

    pipe = commands.add_parser(
        "pipeline",
        help="inspect the artifact pipeline (DAG, provenance, pruning)",
    )
    pipe.add_argument("action", choices=("dag", "manifest", "prune"),
                      help="dag: print the stage catalogue with content "
                           "keys; manifest: show the provenance of the "
                           "last report run in --cache-dir; prune: bound "
                           "the artifact store")
    _add_config_arguments(pipe)
    _add_store_arguments(pipe)
    pipe.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default text)")
    pipe.add_argument("--max-entries", type=int, default=None,
                      help="per-stage entry bound for prune (default: "
                           "the store's standard bound)")
    pipe.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
