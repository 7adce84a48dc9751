"""Command-line interface for the EMSim reproduction.

Usage (also available as ``python -m repro``)::

    python -m repro train --out model.json [--board de0-cv] [--workers 8]
    python -m repro simulate --model model.json program.s [--csv out.csv]
    python -m repro accuracy --model model.json [--groups 2] [--workers 8]
    python -m repro savat --model model.json [--pairs LDM/NOP,ADD/NOP]
    python -m repro report run/manifest.json

``train`` builds a model against the synthetic bench and saves it;
``simulate`` runs a RV32IM assembly file through EMSim and reports the
per-cycle amplitudes; ``accuracy`` scores the model on held-out coverage
groups; ``savat`` computes simulated SAVAT values for instruction pairs;
``balance`` applies the branch-timing-balancing pass; ``report`` renders a run manifest (written under ``--trace-dir``) into a
Markdown run report.
Global flags: ``--profile`` records spans and counters in memory and
prints their tables (per-span calls and seconds, then counters such as
the trace-cache hits/misses) after any command; ``--no-trace-cache``
and ``--trace-cache-dir`` control the content-addressed activity-trace
cache; ``--trace-dir`` records the run (span traces, metrics, a
``repro-manifest/1`` manifest + events JSONL) into a directory, and
``--no-manifest`` keeps the event stream but skips the final
``manifest.json``.  The full reference lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .core import EMSim, Trainer, coverage_groups, load_model, save_model
from .hardware import BOARDS, HardwareDevice
from .isa import assemble
from .leakage import SimulatorSignalSource, savat_matrix
from .observability import (disable_metrics, disable_tracing,
                            enable_metrics, enable_tracing, finish_run,
                            get_metrics, get_tracer,
                            instrumentation_tables, render_report,
                            start_run, validate_manifest)
from .parallel import resolve_workers
from .robustness import ConfigurationError, FaultPlan, ReproError
from .signal import simulation_accuracy
from .uarch import DEFAULT_CONFIG

# ``--workers`` is deliberately left untyped at the argparse layer:
# validation happens inside the command handlers via
# ``resolve_workers`` so a bad value (``--workers=fast``) exits with
# the ConfigurationError code (16) and a precise message, instead of
# argparse's generic usage error (2).


def _checkpoint_path(directory: Optional[str],
                     name: str) -> Optional[str]:
    """Journal file for one campaign under ``--checkpoint-dir``."""
    if directory is None:
        return None
    return os.path.join(directory, f"{name}.jsonl")


def _add_supervision_flags(command: argparse.ArgumentParser) -> None:
    """The shared campaign-supervision flags (train/savat)."""
    command.add_argument("--item-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-item wall-clock deadline; a worker "
                              "stuck past it is killed and the item "
                              "retried (default: no deadline)")
    command.add_argument("--max-item-retries", type=int, default=2,
                         help="failed attempts one item may accumulate "
                              "(crash, timeout, or error) before it is "
                              "quarantined")
    command.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="journal completed campaign items to "
                              "this directory so an interrupted run "
                              "can resume")
    command.add_argument("--resume", action="store_true",
                         help="resume from the journal in "
                              "--checkpoint-dir, skipping completed "
                              "items (bit-identical to an "
                              "uninterrupted run)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EMSim (HPCA 2020) reproduction CLI")
    parser.add_argument("--profile", action="store_true",
                        help="print span wall times and counters after "
                             "the command finishes")
    parser.add_argument("--no-trace-cache", action="store_true",
                        help="disable the content-addressed activity-"
                             "trace cache (every run re-executes the "
                             "pipeline)")
    parser.add_argument("--trace-cache-dir", default=None, metavar="DIR",
                        help="persist trace-cache entries to this "
                             "directory so repeated invocations reuse "
                             "them")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="record this run (span traces, metrics, "
                             "campaign events, and a manifest.json) "
                             "into DIR; render it later with "
                             "'repro report'")
    parser.add_argument("--no-manifest", action="store_true",
                        help="with --trace-dir, keep the events JSONL "
                             "but skip writing the final manifest.json")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a model on the bench")
    train.add_argument("--out", required=True, help="output model JSON")
    train.add_argument("--board", default="de0-cv", choices=sorted(BOARDS))
    train.add_argument("--probes", type=int, default=20,
                       help="activity probes per class")
    train.add_argument("--capture", default="ideal",
                       choices=("ideal", "reference"),
                       help="capture path: exact grid or the full "
                            "scope + modulo pipeline")
    train.add_argument("--repetitions", type=int, default=100,
                       help="scope repetitions per reference capture")
    train.add_argument("--fault-rate", type=float, default=0.0,
                       help="inject bench faults at this per-capture "
                            "rate (0 disables)")
    train.add_argument("--fault-seed", type=int, default=1234,
                       help="seed for the fault injector")
    train.add_argument("--strict", action="store_true",
                       help="fail instead of degrading to the ideal "
                            "grid when a probe cannot be captured")
    train.add_argument("--workers", default="1",
                       help="worker processes for probe captures "
                            "(int or 'auto'; the model is the same at "
                            "any count)")
    _add_supervision_flags(train)

    simulate = commands.add_parser(
        "simulate", help="simulate the EM signal of an assembly program")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("program", help="RV32IM assembly source file")
    simulate.add_argument("--csv", help="write cycle,amplitude CSV here")
    simulate.add_argument("--max-cycles", type=int, default=None)

    accuracy = commands.add_parser(
        "accuracy", help="score the model on held-out coverage groups")
    accuracy.add_argument("--model", required=True)
    accuracy.add_argument("--groups", type=int, default=2)
    accuracy.add_argument("--board", default="de0-cv",
                          choices=sorted(BOARDS))
    accuracy.add_argument("--workers", default="1",
                          help="worker processes for the re-simulation "
                               "fan-out (int or 'auto')")

    savat = commands.add_parser(
        "savat", help="simulated SAVAT for instruction pairs")
    savat.add_argument("--model", required=True)
    savat.add_argument("--pairs", default="LDM/NOP,LDC/NOP,ADD/NOP,MUL/DIV")
    savat.add_argument("--matrix", action="store_true",
                       help="compute the full Table-II matrix over all "
                            "six instruction kinds instead of --pairs")
    savat.add_argument("--workers", default="1",
                       help="worker processes for the pair sweep "
                            "(int or 'auto')")
    _add_supervision_flags(savat)

    balance = commands.add_parser(
        "balance", help="apply the branch-timing-balancing pass to an "
                        "assembly file")
    balance.add_argument("program", help="RV32IM assembly source file")
    balance.add_argument("--out", required=True,
                         help="write balanced assembly here")

    report = commands.add_parser(
        "report", help="render a run manifest written by --trace-dir "
                       "into a Markdown run report")
    report.add_argument("manifest",
                        help="path to a manifest.json produced by a "
                             "--trace-dir run")
    report.add_argument("--journal", default=None, metavar="FILE",
                        help="also summarize this checkpoint journal "
                             "in the report")
    report.add_argument("--out", default=None,
                        help="write the Markdown report here instead "
                             "of stdout")
    return parser


def _cmd_train(args) -> int:
    fault_plan = None
    if args.fault_rate > 0:
        fault_plan = FaultPlan.preset(args.fault_rate,
                                      seed=args.fault_seed)
    device = HardwareDevice(board=BOARDS[args.board],
                            fault_plan=fault_plan)
    print(f"training on {device.name} ...")
    if fault_plan is not None:
        print(f"fault injection: {fault_plan.describe()}")
    checkpoint = _checkpoint_path(args.checkpoint_dir,
                                  f"train_{args.board}")
    trainer = Trainer(device=device,
                      activity_probes_per_class=args.probes,
                      capture_method=args.capture,
                      repetitions=args.repetitions,
                      strict=args.strict,
                      workers=resolve_workers(args.workers),
                      item_timeout=args.item_timeout,
                      max_item_retries=args.max_item_retries,
                      checkpoint=checkpoint,
                      resume=args.resume)
    if checkpoint is not None:
        print(f"checkpoint journal: {checkpoint}"
              + (" (resuming)" if args.resume else ""))
    model = trainer.train()
    save_model(model, args.out)
    print(model.summary())
    print(trainer.report.summary())
    print(f"model written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    with open(args.program) as handle:
        program = assemble(handle.read(), name=args.program)
    simulator = EMSim(model, core_config=DEFAULT_CONFIG)
    result = simulator.simulate(program, max_cycles=args.max_cycles)
    print(f"{program.name}: {len(program)} instructions, "
          f"{result.num_cycles} cycles")
    labels = result.trace.instruction_labels("E")
    for cycle, amplitude in enumerate(result.amplitudes):
        bar = "#" * max(0, int(8 * amplitude))
        print(f"  {cycle:5d}  {labels[cycle]:<14s} {amplitude:7.3f} {bar}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write("cycle,execute_stage,amplitude\n")
            for cycle, amplitude in enumerate(result.amplitudes):
                handle.write(f"{cycle},{labels[cycle]},{amplitude}\n")
        print(f"amplitudes written to {args.csv}")
    return 0


def _cmd_accuracy(args) -> int:
    if args.groups < 1:
        raise ConfigurationError("--groups must be >= 1")
    model = load_model(args.model)
    device = HardwareDevice(board=BOARDS[args.board])
    simulator = EMSim(model, core_config=device.core_config)
    total = 0.0
    groups = coverage_groups(group_size=256, seed=7,
                             limit_groups=args.groups)
    group_count = len(groups)
    simulations = simulator.simulate_many(
        groups, workers=resolve_workers(args.workers))
    for group, simulated in zip(groups, simulations):
        measured = device.capture_ideal(group)
        length = min(len(measured.signal), len(simulated.signal))
        score = simulation_accuracy(simulated.signal[:length],
                                    measured.signal[:length],
                                    device.samples_per_cycle)
        total += score
        print(f"  {group.name}: {score:6.1%}")
    print(f"mean accuracy: {total / group_count:6.1%} "
          f"(paper: ~94.1%)")
    return 0


def _cmd_balance(args) -> int:
    from .leakage import balance_branch_timing
    with open(args.program) as handle:
        program = assemble(handle.read(), name=args.program)
    balanced, report = balance_branch_timing(program)
    with open(args.out, "w") as handle:
        handle.write(balanced.to_asm() + "\n")
    print(f"transformed {report.transformed} branch(es), added "
          f"{report.added_instructions} instructions")
    print(f"balanced assembly written to {args.out}")
    return 0


def _cmd_savat(args) -> int:
    model = load_model(args.model)
    simulator = EMSim(model, core_config=DEFAULT_CONFIG)
    spc = model.config.samples_per_cycle
    source = SimulatorSignalSource(simulator)
    workers = resolve_workers(args.workers)
    supervision = dict(item_timeout=args.item_timeout,
                       max_item_retries=args.max_item_retries,
                       checkpoint=_checkpoint_path(args.checkpoint_dir,
                                                   "savat"),
                       resume=args.resume)

    if args.matrix:
        from .leakage import SAVAT_INSTRUCTIONS, format_matrix
        matrix = savat_matrix(source, spc, workers=workers,
                              **supervision)
        print(format_matrix(matrix, SAVAT_INSTRUCTIONS))
        return 0

    pairs = []
    for pair in args.pairs.split(","):
        kind_a, _, kind_b = pair.strip().partition("/")
        pairs.append((kind_a.upper(), kind_b.upper()))
    matrix = savat_matrix(source, spc, workers=workers, pairs=pairs,
                          **supervision)
    for kind_a, kind_b in pairs:
        print(f"  SAVAT {kind_a}/{kind_b}: "
              f"{matrix[(kind_a, kind_b)]:8.3f}")
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read run manifest {args.manifest!r} ({exc})")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{args.manifest}: run manifest is not valid JSON ({exc})")
    validate_manifest(document)
    journal = None
    if args.journal is not None:
        from .robustness import journal_summary
        journal = journal_summary(args.journal)
    text = render_report(document, journal=journal)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    :class:`~repro.robustness.errors.ReproError` subclasses map to
    distinct nonzero exit codes (see ``repro/robustness/errors.py``) and
    a one-line message on stderr, so scripted pipelines can tell a
    corrupt model file from a failed acquisition without parsing
    tracebacks.
    """
    args = _build_parser().parse_args(argv)
    handlers = {"train": _cmd_train, "simulate": _cmd_simulate,
                "accuracy": _cmd_accuracy, "savat": _cmd_savat,
                "balance": _cmd_balance, "report": _cmd_report}
    if args.no_trace_cache or args.trace_cache_dir is not None:
        from .core import configure_trace_cache
        configure_trace_cache(enabled=not args.no_trace_cache,
                              directory=args.trace_cache_dir)
    recording = args.trace_dir is not None
    if recording:
        try:
            start_run(args.trace_dir, manifest=not args.no_manifest,
                      command=args.command)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    if args.profile:
        enable_tracing()
        enable_metrics().reset()
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if args.profile:
            print("\n".join(instrumentation_tables(
                get_tracer().by_name(), get_metrics().counters))
                or "profile: nothing recorded")
        if recording:
            # finish_run disables tracing and metrics itself
            manifest_path = finish_run()
            if manifest_path is not None:
                print(f"run manifest written to {manifest_path}")
        elif args.profile:
            # leave no recording state behind for later in-process calls
            disable_tracing()
            disable_metrics()
            get_tracer().reset()
            get_metrics().reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
