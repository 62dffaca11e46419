"""``beltway-bench``: command-line access to every reproduced experiment.

Examples
--------
::

    beltway-bench list
    beltway-bench run --benchmark jess --collector 25.25.100 --heap-kb 24
    beltway-bench minheap --benchmark javac --collector gctk:Appel
    beltway-bench experiment figure9 --points 9
    beltway-bench experiment --points 7            # every table and figure
    beltway-bench experiment figure9 --points 33   # the paper's grid
    beltway-bench profile --benchmark jess --heap-kb 48 --output jess.md

Exit codes (consistent across subcommands): ``0`` success; ``1``
failure — a run that did not complete, a sanitizer violation, a failed
shape check, or an output artefact that could not be written; ``2``
usage errors (argparse).  The substrate-kernel tier of every VM a
command builds is the ``REPRO_SUBSTRATE_TIER`` environment variable's
(default auto; results are bit-identical across tiers).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from typing import List, Optional

from ..bench.engine import TAPES
from ..bench.spec import BENCHMARK_NAMES, KB
from ..core.config import EXTENSION_CONFIGS, PAPER_CONFIGS
from ..errors import ConfigError
from .. import kernels
from ..runtime.tape import ReplayPath
from .experiments import ALL_EXPERIMENTS, run_experiment
from .runner import RunOptions, find_min_heap, run

#: --benchmark help once the argument stopped being a closed choice list.
_REF_HELP = (
    "benchmark name (" + ", ".join(BENCHMARK_NAMES) + ") or a declarative "
    "workload file (*.json / *.yaml)"
)


def _checked(cast, accepts, requirement: str):
    """An argparse ``type=``: ``cast`` the text, then insist on
    ``accepts(value)`` — out-of-range flags are usage errors (exit 2),
    not tracebacks from wherever the value first lands."""
    def parse(text: str):
        value = cast(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


_points = _checked(int, lambda n: n >= 2, "a sweep needs at least two points")
_heap_kb = _checked(
    float, lambda kb: 0.0 < kb < math.inf, "a heap size must be positive and finite",
)
_duration = _checked(
    float, lambda s: 0.0 < s < math.inf, "a duration must be positive and finite",
)
_experiment = _checked(
    str, ALL_EXPERIMENTS.__contains__,
    "unknown experiment (choose from " + ", ".join(sorted(ALL_EXPERIMENTS)) + ")",
)
_workers = _checked(int, lambda n: n >= 1, "must be at least 1")
_snapshot_every = _checked(int, lambda n: n >= 0, "must be 0 or a positive count")
_mmu_window = _checked(
    float, lambda f: 0.0 < f <= 1.0, "must be a fraction of the run in (0, 1]"
)


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    """``--scale``, and ``--seed`` where the command's runs read it (the
    registry's experiments fix their own seed)."""
    parser.add_argument("--scale", type=float, default=1.0, help="workload length multiplier")
    if seed:
        parser.add_argument("--seed", type=int, default=13)


def _add_grid(parser: argparse.ArgumentParser, pooled: bool = True) -> None:
    """Grid-campaign flags for the commands that execute cell batches;
    ``--workers`` only where a batch may fan out over a pool."""
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed result store: previously computed cells "
        "are served from here and fresh ones checkpointed as they finish",
    )
    if pooled:
        parser.add_argument(
            "--workers", type=_workers, default=None, metavar="N",
            help="cap the worker processes of parallel batches",
        )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream telemetry as JSON lines: campaign progress "
        "(grid.job), relayed worker run events, and cached-cell replays "
        "— one merged timeline (convert with 'beltway-bench trace')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltway-bench",
        description="Beltway (PLDI 2002) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmarks, collectors, experiments")

    p_run = sub.add_parser("run", help="one benchmark/collector/heap run")
    p_run.add_argument("--benchmark", required=True, metavar="REF", help=_REF_HELP)
    p_run.add_argument("--collector", default="25.25.100")
    p_run.add_argument("--heap-kb", type=_heap_kb, required=True)
    p_run.add_argument(
        "--profile", action="store_true",
        help="print a per-phase wall-time breakdown (mutator/barrier/collect/verify)",
    )
    p_run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream telemetry events (gc, heap snapshots, phases) as JSON lines",
    )
    p_run.add_argument(
        "--snapshot-every", type=_snapshot_every, default=1, metavar="N",
        help="with --trace: heap snapshot every N collections (0 disables)",
    )
    _add_common(p_run)

    p_check = sub.add_parser(
        "check",
        help="run benchmarks under the sanitizer (shadow graph + "
        "differential checker + invariant suite)",
    )
    p_check.add_argument(
        "--benchmark", action="append", default=None, metavar="REF",
        help="workload to check — " + _REF_HELP +
        " (repeatable; default: all six benchmarks)",
    )
    p_check.add_argument("--collector", default="25.25.100")
    p_check.add_argument(
        "--heap-kb", type=_heap_kb, default=96.0,
        help="heap size per run (default 96)",
    )
    p_check.add_argument(
        "--fault", action="append", default=None, metavar="KIND[@NTH]",
        help="arm a deterministic fault before the run (e.g. "
        "barrier.drop-entry@3); repeatable",
    )
    _add_common(p_check)

    p_prof = sub.add_parser(
        "profile",
        help="profile one run (lifetime demographics, pause analytics, "
        "heap geometry, cost attribution) and write the report",
    )
    p_prof.add_argument("--benchmark", required=True, metavar="REF", help=_REF_HELP)
    p_prof.add_argument("--collector", default="25.25.100")
    p_prof.add_argument("--heap-kb", type=_heap_kb, required=True)
    p_prof.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the markdown report here (default: stdout)",
    )
    p_prof.add_argument(
        "--json", metavar="PATH", default=None, dest="json_path",
        help="also write the full ProfileReport as JSON",
    )
    p_prof.add_argument(
        "--snapshot-every", type=_snapshot_every, default=1, metavar="N",
        help="heap-geometry sample every N collections (0: boundaries only)",
    )
    _add_common(p_prof)

    p_min = sub.add_parser("minheap", help="find the minimum heap size")
    p_min.add_argument("--benchmark", required=True, metavar="REF", help=_REF_HELP)
    p_min.add_argument("--collector", default="gctk:Appel")
    _add_common(p_min)
    _add_grid(p_min, pooled=False)  # one search: sequential by nature

    p_srv = sub.add_parser(
        "serve",
        help="run a request-driven server workload from a declarative "
        "spec file and report request-latency percentiles",
    )
    p_srv.add_argument(
        "spec",
        help="server workload spec: a *.json / *.yaml file "
        "(see examples/workloads/)",
    )
    p_srv.add_argument("--collector", default="25.25.100")
    p_srv.add_argument(
        "--heap-kb", type=_heap_kb, default=None,
        help="heap size (required unless --validate)",
    )
    p_srv.add_argument(
        "--rate", default=None, metavar="RPS[,RPS...]",
        help="override the spec's arrival rate (requests per second); a "
        "comma-separated ladder runs the workload once per rate",
    )
    p_srv.add_argument(
        "--duration", type=_duration, default=None, metavar="S",
        help="override the spec's observation window (simulated seconds)",
    )
    p_srv.add_argument(
        "--validate", action="store_true",
        help="validate the spec file and exit without running",
    )
    _add_common(p_srv)
    _add_grid(p_srv)

    p_slo = sub.add_parser(
        "slo",
        help="SLO-driven evaluation of a server workload: throughput-"
        "latency frontier (--rates) or max-sustainable-rate search "
        "(--search)",
    )
    p_slo.add_argument(
        "spec",
        help="server workload spec: a *.json / *.yaml file "
        "(see examples/workloads/)",
    )
    p_slo.add_argument(
        "--collector", action="append", default=None, metavar="NAME",
        help="collector to evaluate (repeatable; default 25.25.100)",
    )
    p_slo.add_argument(
        "--heap-kb", type=_heap_kb, required=True,
        help="heap size of the measured operating point",
    )
    p_slo.add_argument(
        "--rates", default=None, metavar="R1,R2,...",
        help="frontier mode: comma-separated ladder of offered rates (rps)",
    )
    p_slo.add_argument(
        "--no-distill", action="store_true",
        help="frontier mode: skip the no-GC reference cells (no distilled "
        "GC cost columns)",
    )
    p_slo.add_argument(
        "--mmu-window", type=_mmu_window, default=0.01, metavar="FRAC",
        help="MMU window as a fraction of the run (default 0.01)",
    )
    p_slo.add_argument(
        "--search", action="store_true",
        help="search mode: find the max sustainable rate under the "
        "declared SLO bounds",
    )
    p_slo.add_argument(
        "--slo-p50-ms", type=float, default=None, metavar="MS",
        help="SLO bound: p50 request latency (milliseconds)",
    )
    p_slo.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="SLO bound: p99 request latency (milliseconds)",
    )
    p_slo.add_argument(
        "--slo-p999-ms", type=float, default=None, metavar="MS",
        help="SLO bound: p99.9 request latency (milliseconds)",
    )
    p_slo.add_argument(
        "--slo-mmu", type=float, default=None, metavar="FRAC",
        help="SLO bound: minimum mutator utilisation at --mmu-window",
    )
    p_slo.add_argument(
        "--rate-step", type=int, default=100, metavar="RPS",
        help="search mode: rate lattice granularity (default 100)",
    )
    p_slo.add_argument(
        "--max-rate", type=int, default=None, metavar="RPS",
        help="search mode: ceiling of the searched range "
        "(default: 16x the start rate)",
    )
    p_slo.add_argument(
        "--start-rate", type=int, default=None, metavar="RPS",
        help="search mode: first probe (default: the spec's arrival rate)",
    )
    p_slo.add_argument(
        "--json", metavar="PATH", default=None, dest="json_path",
        help="also write the frontier/search data as JSON",
    )
    p_slo.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the rendered tables here (default: stdout)",
    )
    _add_common(p_slo)
    _add_grid(p_slo)

    p_exp = sub.add_parser(
        "experiment", help="reproduce tables and figures (default: every one)"
    )
    # Checked by ``type=`` rather than ``choices=``: argparse rejects an
    # empty ``nargs="*"`` list against choices.
    p_exp.add_argument(
        "names", nargs="*", type=_experiment, metavar="NAME",
        help="experiments to run, in this order (default: all, in registry order)",
    )
    p_exp.add_argument(
        "--points", type=_points, default=9,
        help="heap grid points (the paper's grid: 33)",
    )
    _add_common(p_exp, seed=False)
    _add_grid(p_exp)

    p_tr = sub.add_parser(
        "trace",
        help="convert a --trace JSONL artefact to Chrome trace-event / "
        "Perfetto JSON (opens in ui.perfetto.dev)",
    )
    p_tr.add_argument(
        "artefact", help="telemetry JSONL file written by --trace"
    )
    p_tr.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="output path (default: <artefact stem>.perfetto.json)",
    )

    p_cmp = sub.add_parser(
        "compare",
        help="diff two artefacts (trace JSONL or 'slo --json' documents): "
        "counters, pause percentiles, MMU, request latencies, knees",
    )
    p_cmp.add_argument("baseline", help="artefact A (the baseline)")
    p_cmp.add_argument("candidate", help="artefact B (the candidate)")
    p_cmp.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="relative regression threshold in percent (default 5)",
    )
    p_cmp.add_argument(
        "--metric-threshold", action="append", default=None,
        metavar="NAME=PCT", dest="metric_thresholds",
        help="per-metric threshold override (leaf or full metric name; "
        "repeatable)",
    )
    p_cmp.add_argument(
        "--verbose", action="store_true",
        help="also list unchanged-but-differing direction-free metrics",
    )

    p_rep = sub.add_parser("report", help="write a full markdown report")
    p_rep.add_argument(
        "names", nargs="*", type=_experiment, metavar="NAME",
        help="experiments to include (default: all), in registry order",
    )
    p_rep.add_argument("--output", default="beltway-report.md")
    p_rep.add_argument(
        "--points", type=_points, default=9,
        help="heap grid points (the paper's grid: 33)",
    )
    _add_common(p_rep, seed=False)
    _add_grid(p_rep)
    return parser


@contextlib.contextmanager
def _campaign(args):
    """One grid campaign (any command with the :func:`_add_grid` flags).

    Yields ``(store, bus)`` — the ``--store`` ResultStore and the
    ``--trace`` bus streaming to JSONL, each ``None`` when not asked for —
    with the experiment layer pointed at both.  However the block is left,
    the process-wide grid config is reset, the trace and the store are
    closed, and the ``trace:`` / ``grid:`` / ``tape replay:`` rows are
    printed — the first with the relay's drop count when any worker events
    were lost (drops are never silent, see :mod:`repro.obs.relay`).
    """
    from ..obs import JsonlSink, TelemetryBus
    from ..obs.relay import DropTally
    from . import experiments

    store = bus = None
    try:
        if args.store:
            from ..grid.store import ResultStore

            store = ResultStore(args.store)
        if args.trace:
            sink = JsonlSink(args.trace)  # may raise: before the bus exists
            bus = TelemetryBus()
            bus.subscribe(sink)
            tally = bus.subscribe(DropTally())
        experiments.configure_grid(
            store=store, max_workers=getattr(args, "workers", None), bus=bus
        )
        yield store, bus
    finally:
        # The grid config is process-wide; a later in-process caller must
        # not inherit this command's (now closed) trace bus or store.
        experiments.configure_grid()
        if bus is not None:
            count = sink.count
            bus.close()
            line = f"trace: {count} events -> {args.trace}"
            if tally.dropped:
                line += (
                    f" ({tally.dropped} worker events dropped at the "
                    f"forwarding buffer)"
                )
            print(line)
        if store is not None:
            store.close()
            summary = f"grid: {store.hits} cached, {store.puts} executed"
            if store.corrupt_entries:
                summary += f", {store.corrupt_entries} corrupt entries recomputed"
            print(summary)
        # ``run``'s rule, over the cells this process itself replayed.
        replayed, TAPES.replayed = TAPES.replayed, ReplayPath()
        if replayed.records and replayed.why != "tier":
            print(replayed.summary_row())


def _run_experiment(name: str, points: int, scale: float) -> bool:
    started = time.time()
    result = run_experiment(name, points, scale)
    print(result.text)
    elapsed = time.time() - started
    failed = result.failed_checks()
    verdict = "all shape checks PASS" if not failed else f"FAILED checks: {failed}"
    print(f"\n[{name}] {verdict} ({elapsed:.1f}s)\n")
    return not failed


def _parse_rates(parser: argparse.ArgumentParser, text: str) -> List[float]:
    """A comma-separated rate ladder (``"700"`` or ``"600,1200,2400"``)."""
    rates: List[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            rate = float(part)
        except ValueError:
            parser.error(f"invalid rate {part!r} in {text!r}")
        if not 0 < rate < math.inf:
            parser.error(f"rates must be positive and finite (got {part!r})")
        rates.append(rate)
    if not rates:
        parser.error(f"no rates in {text!r}")
    return rates


def _serve(parser: argparse.ArgumentParser, args) -> int:
    """The ``serve`` subcommand: one open-loop server-workload run."""
    from ..specs import load as load_spec
    from ..workloads.model import ServerWorkloadSpec

    try:
        spec = load_spec(args.spec)
    except ConfigError as error:
        print(f"invalid workload spec: {error}", file=sys.stderr)
        return 1
    if not isinstance(spec, ServerWorkloadSpec):
        parser.error(
            f"'serve' needs a server workload spec file; "
            f"{args.spec!r} resolved to the closed-loop benchmark "
            f"{spec.name!r} (use 'run' for those)"
        )
    ladder = _parse_rates(parser, args.rate) if args.rate is not None else None
    if ladder is not None and len(ladder) == 1:
        spec = spec.with_rate(ladder[0])
        ladder = None
    if args.duration is not None:
        spec = spec.with_duration(args.duration)
    if args.validate:
        arrival = spec.arrival
        mix = ", ".join(f"{t.name}({t.weight:g})" for t in spec.tasks)
        print(f"{spec.name}: valid server workload")
        print(
            f"  arrival: {arrival.process} @ {arrival.rate_rps:g} req/s, "
            f"window {spec.duration_s:g}s (~{spec.expected_requests()} requests)"
        )
        print(f"  tasks: {mix}")
        print(f"  est. allocation: {spec.total_alloc_bytes / KB:.1f}KB")
        return 0
    if args.heap_kb is None:
        parser.error("serve needs --heap-kb (unless --validate)")
    heap_bytes = int(args.heap_kb * KB)
    from .runner import run_many

    with _campaign(args) as (store, bus):
        # One grid batch whether the ladder has one rung or many: with
        # --trace, campaign progress and every run's (relayed) telemetry
        # land in one merged JSONL timeline; cached cells replay their
        # stored pause lists (see repro.obs.relay).
        rungs = ladder if ladder is not None else [None]
        results = run_many(
            [
                (spec.with_rate(rate) if rate is not None else spec,
                 args.collector, heap_bytes, args.scale, args.seed)
                for rate in rungs
            ],
            max_workers=args.workers,
            store=store,
            bus=bus,
        )
        ok = True
        for rate, stats in zip(rungs, results):
            ok = ok and stats.completed
            print(stats.summary_row())
            requests = stats.requests
            if requests is not None:
                print(requests.summary_row())
                # The golden-snapshot grep line: full-precision reprs, so CI
                # can assert bit-identity of the percentiles with grep -F.
                at_rate = f"@{rate:g}rps" if rate is not None else ""
                print(
                    f"latency-cycles {stats.benchmark}/{stats.collector}"
                    f"{at_rate}: "
                    f"p50={requests.p50_cycles!r} p99={requests.p99_cycles!r} "
                    f"p99.9={requests.p999_cycles!r} max={requests.max_cycles!r}"
                )
        return 0 if ok else 1


def _slo_bound(args):
    """The SLOBound declared by the ``slo`` flags (None: no bound given)."""
    from ..slo import SLOBound

    if all(
        value is None
        for value in (args.slo_p50_ms, args.slo_p99_ms, args.slo_p999_ms,
                      args.slo_mmu)
    ):
        return None
    return SLOBound.from_ms(
        p50=args.slo_p50_ms,
        p99=args.slo_p99_ms,
        p999=args.slo_p999_ms,
        min_mmu=args.slo_mmu,
        mmu_window_fraction=args.mmu_window,
    )


def _slo(parser: argparse.ArgumentParser, args) -> int:
    """The ``slo`` subcommand: frontier sweep or max-rate search."""
    import json

    from ..analysis.slo import (
        render_frontier,
        render_frontier_comparison,
        render_search_results,
    )
    from ..slo import max_sustainable_rates, sweep_frontier
    from ..specs import load as load_spec
    from ..workloads.model import ServerWorkloadSpec

    try:
        spec = load_spec(args.spec)
    except ConfigError as error:
        print(f"invalid workload spec: {error}", file=sys.stderr)
        return 1
    if not isinstance(spec, ServerWorkloadSpec):
        parser.error(
            f"'slo' needs a server workload spec file; {args.spec!r} "
            f"resolved to the closed-loop benchmark {spec.name!r}"
        )
    collectors = args.collector or ["25.25.100"]
    heap_bytes = int(args.heap_kb * KB)
    slo = _slo_bound(args)
    if args.search and slo is None:
        parser.error(
            "--search needs at least one SLO bound "
            "(--slo-p50-ms / --slo-p99-ms / --slo-p999-ms / --slo-mmu)"
        )
    if not args.search and args.rates is None:
        parser.error("frontier mode needs --rates (or use --search)")
    with _campaign(args) as (store, bus):
        sections: List[str] = []
        artefact = {}

        if args.search:
            results = max_sustainable_rates(
                args.spec,
                [(collector, heap_bytes) for collector in collectors],
                slo,
                rate_step=args.rate_step,
                max_rate=args.max_rate,
                start_rate=args.start_rate,
                scale=args.scale,
                seed=args.seed,
                store=store,
                max_workers=args.workers,
                bus=bus,
            )
            ordered = [results[(c, heap_bytes)] for c in collectors]
            completed = True  # a failing probe is the search at work
            sections.append(render_search_results(ordered, slo.describe()))
            sections.append("\n".join(result.line() for result in ordered))
            artefact["search"] = {
                "benchmark": spec.name,
                "slo": slo.describe(),
                "results": [result.to_dict() for result in ordered],
            }
        else:
            rates = _parse_rates(parser, args.rates)
            frontiers = [
                sweep_frontier(
                    args.spec,
                    collector,
                    heap_bytes,
                    rates,
                    scale=args.scale,
                    seed=args.seed,
                    store=store,
                    max_workers=args.workers,
                    bus=bus,
                    distill=not args.no_distill,
                    mmu_window_fraction=args.mmu_window,
                )
                for collector in collectors
            ]
            for frontier in frontiers:
                sections.append(render_frontier(frontier))
            if len(frontiers) > 1:
                sections.append(render_frontier_comparison(frontiers))
            sections.append(
                "\n".join(
                    line for frontier in frontiers
                    for line in frontier.point_lines()
                )
            )
            if slo is not None:
                sections.append(
                    "\n".join(
                        f"knee {frontier.benchmark}/{frontier.collector}: "
                        + (f"{knee:g} rps" if knee is not None else "none")
                        + f" under {slo.describe()}"
                        for frontier in frontiers
                        for knee in (frontier.knee(slo),)
                    )
                )
            artefact["frontiers"] = [frontier.to_dict() for frontier in frontiers]
            completed = all(
                point.completed for frontier in frontiers for point in frontier.points
            )

        text = "\n\n".join(sections)
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as stream:
                    stream.write(text + "\n")
                print(f"slo report -> {args.output}")
            else:
                print(text)
            if args.json_path:
                with open(args.json_path, "w", encoding="utf-8") as stream:
                    json.dump(artefact, stream, indent=1, sort_keys=True)
                    stream.write("\n")
                print(f"slo JSON -> {args.json_path}")
        except OSError as error:
            print(f"error: cannot write slo artefact: {error}", file=sys.stderr)
            return 1
        return 0 if completed else 1


def _trace(args) -> int:
    """The ``trace`` subcommand: telemetry JSONL -> Perfetto JSON."""
    from pathlib import Path

    from ..obs.sinks import JsonlLoadReport, iter_jsonl
    from ..obs.trace import build_timeline, write_perfetto

    report = JsonlLoadReport()
    try:
        events = list(iter_jsonl(args.artefact, validate=True, report=report))
    except OSError as error:
        print(f"error: cannot read trace artefact: {error}", file=sys.stderr)
        return 2
    if not events:
        print(
            f"error: no telemetry events in {args.artefact} "
            f"({report.skipped} line(s) skipped)",
            file=sys.stderr,
        )
        return 2
    timeline = build_timeline(events)
    output = args.output or Path(args.artefact).with_suffix("").name + ".perfetto.json"
    try:
        write_perfetto(timeline, output)
    except OSError as error:
        print(f"error: cannot write {output}: {error}", file=sys.stderr)
        return 1
    line = (
        f"trace: {len(timeline.spans)} spans from {len(events)} events "
        f"-> {output}"
    )
    if report.skipped:
        line += f" ({report.skipped} unreadable line(s) skipped)"
    truncated = timeline.attrs.get("truncated", [])
    if truncated:
        line += f" ({len(truncated)} partition(s) truncated mid-run)"
    print(line)
    return 0


def _compare(parser: argparse.ArgumentParser, args) -> int:
    """The ``compare`` subcommand: diff two artefacts, exit 1 on regression."""
    from ..analysis.compare import ArtefactError, compare_artefacts

    overrides = {}
    for item in args.metric_thresholds or ():
        name, sep, raw = item.partition("=")
        if not sep or not name:
            parser.error(f"--metric-threshold expects NAME=PCT, got {item!r}")
        try:
            pct = float(raw)
        except ValueError:
            parser.error(f"--metric-threshold {item!r}: {raw!r} is not a number")
        if pct < 0:
            parser.error(f"--metric-threshold {item!r}: threshold must be >= 0")
        overrides[name] = pct / 100.0
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")
    try:
        result = compare_artefacts(
            args.baseline,
            args.candidate,
            threshold=args.threshold / 100.0,
            metric_thresholds=overrides or None,
        )
    except ArtefactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render(verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ConfigError as error:
        # Bad benchmark names, unresolvable refs, malformed collector
        # specs: usage errors, reported like argparse's own (exit 2).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # An artefact (--trace, --store, an output file) that could not be
        # opened or written, wherever no command said something more
        # specific: the exit contract's 1, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    if os.environ.get(kernels.TIER_ENV):
        # A degraded request still runs (and stdout stays golden-clean),
        # but never silently: stderr, once per invocation.
        kernel_set = kernels.resolve()
        if kernel_set.requested not in ("auto", kernel_set.name):
            status = kernels.available().get(kernel_set.requested, "retired")
            print(
                f"tier: requested {kernel_set.requested}, "
                f"running {kernel_set.name} ({status})",
                file=sys.stderr,
            )
    if args.command == "list":
        print("benchmarks: " + ", ".join(BENCHMARK_NAMES))
        print("collectors: " + ", ".join(PAPER_CONFIGS))
        print("gctk baselines: gctk:SS, gctk:Appel, gctk:Fixed.<pct>")
        print("extensions: " + ", ".join(EXTENSION_CONFIGS))
        print("experiments: " + ", ".join(sorted(ALL_EXPERIMENTS)))
        return 0
    if args.command == "run":
        report = run(
            args.benchmark,
            args.collector,
            int(args.heap_kb * KB),
            options=RunOptions(
                scale=args.scale,
                seed=args.seed,
                profile=args.profile,
                trace=args.trace,
                snapshot_every=args.snapshot_every,
            ),
        )
        print(report.stats.summary_row())
        if report.replay is not None and report.replay.why != "tier":
            print(report.replay.summary_row())
        if args.profile:
            phases = report.phases
            total = phases["total"] or 1e-12
            print("phase breakdown (host wall time):")
            for name in ("mutator", "barrier", "collect", "verify"):
                print(
                    f"  {name:<8} {phases[name] * 1000:9.1f} ms "
                    f"{100.0 * phases[name] / total:5.1f}%"
                )
            print(f"  {'total':<8} {total * 1000:9.1f} ms")
        if args.trace:
            print(
                f"trace: {report.trace_events_written} events -> {args.trace}"
            )
        return 0 if report.completed else 1
    if args.command == "profile":
        report = run(
            args.benchmark,
            args.collector,
            int(args.heap_kb * KB),
            options=RunOptions(
                scale=args.scale,
                seed=args.seed,
                profile="full",
                snapshot_every=args.snapshot_every,
            ),
        )
        profile = report.profile
        markdown = profile.to_markdown()
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as stream:
                    stream.write(markdown)
                print(f"profile report -> {args.output}")
            else:
                print(markdown, end="")
            if args.json_path:
                with open(args.json_path, "w", encoding="utf-8") as stream:
                    stream.write(profile.to_json())
                print(f"profile JSON -> {args.json_path}")
        except OSError as error:
            print(f"error: cannot write profile report: {error}", file=sys.stderr)
            return 1
        return 0 if report.completed else 1
    if args.command == "check":
        from ..sanitizer.faults import FAULT_KINDS, FaultSpec

        faults = []
        for text in args.fault or ():
            kind, _, nth = text.partition("@")
            if kind not in FAULT_KINDS:
                parser.error(
                    f"unknown fault kind {kind!r} "
                    f"(choose from: {', '.join(FAULT_KINDS)})"
                )
            if nth and not nth.isdigit():
                parser.error(f"fault occurrence must be an integer: {text!r}")
            faults.append(FaultSpec(kind, nth=int(nth) if nth else None))
        benchmarks = args.benchmark or list(BENCHMARK_NAMES)
        ok = True
        for name in benchmarks:
            report = run(
                name,
                args.collector,
                int(args.heap_kb * KB),
                options=RunOptions(
                    scale=args.scale,
                    seed=args.seed,
                    sanitize=True,
                    faults=tuple(faults),
                ),
            )
            sanitizer = report.sanitizer
            status = "OK" if (report.completed and sanitizer.ok) else "FAIL"
            print(
                f"[{status}] {name}/{args.collector}: "
                f"{sanitizer.collections_checked} collections checked, "
                f"{sanitizer.objects_compared} objects compared, "
                f"{len(sanitizer.violations)} violation(s)"
            )
            if not sanitizer.ok:
                print("  " + "\n  ".join(str(v) for v in sanitizer.violations))
            if not report.completed and sanitizer.ok:
                print(f"  run failed: {report.stats.failure}")
            if faults and not sanitizer.faults_injected:
                print(
                    "  note: armed fault(s) never fired on this "
                    "workload/collector — nothing was sabotaged"
                )
            ok = ok and report.completed and sanitizer.ok
        return 0 if ok else 1
    if args.command == "serve":
        return _serve(parser, args)
    if args.command == "slo":
        return _slo(parser, args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "compare":
        return _compare(parser, args)
    with _campaign(args) as (store, bus):
        if args.command == "minheap":
            minimum = find_min_heap(
                args.benchmark, args.collector, scale=args.scale, seed=args.seed,
                store=store, bus=bus,
            )
            print(f"{args.benchmark}/{args.collector}: min heap = {minimum / KB:.1f}KB")
            return 0
        if args.command == "experiment":
            ok = True
            for name in args.names or ALL_EXPERIMENTS:
                ok = _run_experiment(name, args.points, args.scale) and ok
            return 0 if ok else 1
        if args.command == "report":
            from pathlib import Path

            from .report import write_report

            try:
                results = write_report(
                    Path(args.output), points=args.points, scale=args.scale,
                    names=args.names,
                )
            except OSError as error:
                print(f"error: cannot write report: {error}", file=sys.stderr)
                return 1
            failed = [n for n, r in results.items() if not r.all_checks_pass]
            print(f"wrote {args.output} ({len(results)} experiments)")
            if failed:
                print(f"FAILED shape checks in: {failed}")
                return 1
            return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
