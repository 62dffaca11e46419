#!/usr/bin/env python3
"""End-to-end benchmark driver: what a user waits on, layer by layer.

Three ways to call it::

    run.py --workload W --seed N --seconds S --trace 0|1   # one run (the gate)
    run.py [--quick] [--seed N] [--output FILE]            # every workload
    run.py --agree A B                                     # compare two outputs

One run measures one workload in one process.  ``--trace 0`` is the timed
run (end-to-end metrics, tracing off); ``--trace 1`` is the separate
traced run (per-layer metrics).  The last line of a run's standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Metric names, units, directions and bounds live in ``BENCHMARK.json``.
Exit code: 0 clean, 1 a check failed, 2 usage, 3 cannot run here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("spec_mix", "gc_tight", "serve_ladder", "campaign")

# The program under test is this checkout's own source tree.
sys.path.insert(0, str(ROOT / "src"))


def load_contract() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def setup_probe(refs: List[str]) -> int:
    """What a fresh interpreter pays before its first cell."""
    t0 = time.perf_counter()
    import repro
    from repro import kernels

    kernels.resolve()
    for ref in refs:
        repro.load_spec(ref)
    print(repr(time.perf_counter() - t0))
    return 0


def run_one(args) -> int:
    try:
        import timed
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"run.py: cannot import the program under {ROOT / 'src'}: {error}", file=sys.stderr)
        return 3
    contract = load_contract()
    workload = WORKLOADS[args.workload]
    env = timed.capture_env(workload.tier)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        if args.trace:
            import layers

            trace_path = OUT_DIR / f"trace-{workload.name}.json"
            values, extra, checks = layers.trace_workload(
                workload, args.seed, timed.QUICK_SCALE if args.quick else workload.scale, scratch,
                trace_path, args.quick,
            )
            sim_digest = None
        else:
            values, extra, checks, sim_digest = timed.run_timed(
                workload, args.seed, args.seconds, args.quick, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = contract["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        odd = sorted(set(values) ^ {m["name"] for m in declared})
        print(f"run.py: measured metrics and BENCHMARK.json disagree on {odd}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": len(checks.problems),
        "metrics": metrics,
    }
    document = dict(
        summary,
        workload=workload.name, why=workload.why, seed=args.seed,
        seconds=args.seconds, quick=args.quick, trace=args.trace, env=env,
        comparable=env["comparable"], sim_digest=sim_digest,
        failed_share=len(checks.problems) / max(1, checks.attempted),
        problems=checks.problems, extra=extra,
    )
    if args.result:
        Path(args.result).write_text(json.dumps(document, indent=1), encoding="utf-8")
    print_run(document, declared)
    print(json.dumps(summary))
    return 1 if checks.problems else 0


def print_run(document: Dict, declared: List[Dict]) -> None:
    env = document["env"]
    print(
        f"== {document['workload']} trace={document['trace']} seed={document['seed']} "
        f"tier {env['tier_requested']}->{env['tier_resolved']} nproc={env['nproc']} "
        f"load={env['load_1min']:.2f} comparable={str(document['comparable']).lower()}"
    )
    for m in declared:
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        value = document["metrics"][m["name"]]["value"]
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} {m['better']}{bound}")
    for name, value in sorted(document["extra"].items()):
        print(f"  + {name:<32} {json.dumps(value)}")
    print(
        f"  failed_share {document['failed_share']:.6g} "
        f"({document['failed']} of {document['attempted']} checks)"
        + (f"  sim_digest {document['sim_digest'][:16]}" if document["sim_digest"] else "")
    )
    for problem in document["problems"]:
        print(f"  FAILED: {problem}")


# ----------------------------------------------------------------------
# every workload, one process each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    traces = [args.trace] if args.trace is not None else ([0] if args.quick else [0, 1])
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in traces:
            result = OUT_DIR / f"run-{name}-trace{trace}.json"
            result.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(0.0 if args.quick else seconds),
                "--trace", str(trace), "--result", str(result),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            sys.stdout.flush()
            code = max(code, done.returncode)
            if result.exists():
                runs.append(json.loads(result.read_text("utf-8")))
    output = Path(args.output) if args.output else OUT_DIR / "results.json"
    output.write_text(json.dumps({"benchmark": "benchmarks/e2e", "runs": runs}, indent=1), "utf-8")
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    print(f"== {len(runs)} runs, failed_share {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted}); results in {output}")
    return code


# ----------------------------------------------------------------------
# --agree
# ----------------------------------------------------------------------
def timed_runs(path: str) -> Dict[str, Dict]:
    document = json.loads(Path(path).read_text("utf-8"))
    return {run["workload"]: run for run in document["runs"] if run["trace"] == 0}


def agree(path_a: str, path_b: str) -> int:
    """Do two result sets of the same code agree within the bounds?"""
    try:
        a, b = timed_runs(path_a), timed_runs(path_b)
        bounds = {m["name"]: m for m in load_contract()["end_to_end"]}
    except (OSError, ValueError, KeyError) as error:
        print(f"run.py --agree: {error}", file=sys.stderr)
        return 2
    if not a or set(a) != set(b):
        print(f"run.py --agree: workloads differ: {sorted(a)} vs {sorted(b)}", file=sys.stderr)
        return 2
    verdict = 0
    for name in sorted(a):
        run_a, run_b = a[name], b[name]
        rows = []
        for metric, spec in bounds.items():
            va = run_a["metrics"][metric]["value"]
            vb = run_b["metrics"][metric]["value"]
            move = abs(vb - va) / abs(va) if va else float(vb != va)
            rows.append((metric, va, vb, spec["unit"], move, move <= spec["bound"], spec["bound"]))
        same_sim = run_a["sim_digest"] == run_b["sim_digest"]
        clean = not run_a["failed"] and not run_b["failed"]
        comparable = run_a["comparable"] and run_b["comparable"] and run_a["quick"] == run_b["quick"]
        for metric, va, vb, unit, move, ok, bound in rows:
            print(f"{name:<13} {metric:<15} {va:>12.6g} {vb:>12.6g} {unit:<5} "
                  f"moved {move:6.2%} (bound {bound:.0%})  {'agree' if ok else 'DISAGREE'}")
        print(f"{name:<13} {'sim_digest':<15} {'same' if same_sim else 'DIFFERENT'}; "
              f"checks {'clean' if clean else 'FAILED'}; "
              f"{'comparable' if comparable else 'NOT COMPARABLE'}")
        if not (all(row[5] for row in rows) and same_sim and clean and comparable):
            verdict = 1
    print("agree" if verdict == 0 else "disagree")
    return verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed budget of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one round per phase at scale 0.25: a smoke test, not a measurement")
    parser.add_argument("--result", metavar="FILE", help="also write this run's full document")
    parser.add_argument("--output", metavar="FILE", help="where the all-workloads run writes its result set")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", nargs="+", metavar="REF", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.agree:
        return agree(*args.agree)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(load_contract()["run_seconds"])
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
