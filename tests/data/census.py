#!/usr/bin/env python3
"""Function census: which ``def``s under ``src/repro`` does a user path enter?

Run from the repository root (a few minutes; not part of tier-1)::

    PYTHONPATH=src python tests/data/census.py

Every user path below runs once per substrate tier (``python`` and
``cffi``, each in a fresh interpreter with ``REPRO_SUBSTRATE_TIER`` set)
under ``sys.setprofile``, which records every Python code object entered
(from before ``import repro``, so module-level calls count).
Pools are forced serial (``os.cpu_count`` reads 1), so grid cells run in
the profiled process instead of in pool workers.  The user paths:

* every ``beltway-bench`` subcommand: ``list``; ``experiment`` (no
  names: every registry entry) and ``report``, each cold and then warm
  against one ``--store``; ``run`` plain, with
  ``--profile`` and with ``--trace``; ``check`` without a fault and with
  every fault kind, on a Beltway and a gctk plan; ``profile``; ``slo``
  frontier and search; ``serve`` (``--validate``, and a traced rate
  ladder with ``--duration``); ``minheap``; ``trace``; ``compare`` on
  traces and on ``slo --json`` documents;
* the six benchmark specs x twelve collectors x two heaps through
  ``repro.run``;
* the six ``examples/`` scripts;
* ``benchmarks/check_replay_path.py``;
* ``benchmarks/e2e/run.py --quick`` for every workload, in both trace
  modes, in process (its setup and CLI probes run in subprocesses, which
  the census does not see; they enter only what the paths above enter).

A ``def`` counts as entered when a code object with its file and first
line (the first decorator's line, as CPython numbers it) ran.  The report
lists every never-entered ``def`` with the references to its name outside
``tests/`` (in ``src/``, ``benchmarks/`` and ``examples/``): a name with
none there is called by its own tests only, or by nothing.  Dunders and
the safety code DESIGN §9 keeps are listed like everything else; the
verdicts live in DESIGN §9, not here.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TIERS = ("python", "cffi")
SPECS = ("jess", "raytrace", "db", "javac", "jack", "pseudojbb")
COLLECTORS = (
    "BSS", "Appel", "100.100", "Fixed.25", "BOF.25", "BOFM.25", "25.25",
    "25.25.100", "25.25.MOS", "gctk:SS", "gctk:Appel", "gctk:Fixed.25",
)
HEAPS_KB = (48, 128)
SCALE = 0.3  # workload length multiplier of every path
KVSTORE = str(ROOT / "examples" / "workloads" / "kvstore.json")
E2E_WORKLOADS = ("spec_mix", "gc_tight", "serve_ladder", "campaign")

Def = Tuple[str, int]  # (path relative to ROOT, first line)


# ----------------------------------------------------------------------
# The user paths (run inside one tier's interpreter)
# ----------------------------------------------------------------------
def _cli(*argv: str) -> Callable[[], object]:
    def path():
        from repro.harness.cli import main

        try:
            return main(list(argv))
        except SystemExit as exit_:
            return exit_.code
    path.__name__ = "beltway-bench " + " ".join(argv)
    return path


def user_paths(tier: str, work: Path) -> List[Callable[[], object]]:
    from repro.sanitizer.faults import FAULT_KINDS

    s = str(SCALE)
    paths = [_cli("list")]
    for command, extra in (("experiment", ()), ("report", ("--output", str(work / "report.md")))):
        store = str(work / f"store-{command}")
        for _ in ("cold", "warm"):
            paths.append(_cli(command, "--points", "2", "--scale", s, "--store", store, *extra))
    paths += [
        _cli("run", "--benchmark", "jess", "--heap-kb", "48", "--scale", s),
        _cli("run", "--benchmark", "javac", "--heap-kb", "64", "--scale", s, "--profile"),
        _cli("run", "--benchmark", "jess", "--heap-kb", "48", "--scale", s,
             "--trace", str(work / "a.jsonl")),
        _cli("run", "--benchmark", "jess", "--collector", "gctk:Appel", "--heap-kb", "48",
             "--scale", s, "--trace", str(work / "b.jsonl"), "--snapshot-every", "0"),
        _cli("trace", str(work / "a.jsonl"), "-o", str(work / "a.perfetto.json")),
        _cli("compare", str(work / "a.jsonl"), str(work / "b.jsonl")),
        _cli("profile", "--benchmark", "jess", "--heap-kb", "48", "--scale", s,
             "--json", str(work / "p.json"), "--output", str(work / "p.md")),
        _cli("minheap", "--benchmark", "jess", "--scale", s),
        _cli("minheap", "--benchmark", "raytrace", "--collector", "25.25.100", "--scale", s),
        _cli("serve", KVSTORE, "--validate"),
        _cli("serve", KVSTORE, "--heap-kb", "256", "--rate", "300,600",
             "--duration", "0.5", "--trace", str(work / "serve.jsonl")),
        _cli("slo", KVSTORE, "--heap-kb", "256", "--rates", "300,600",
             "--collector", "25.25.100", "--collector", "gctk:Appel",
             "--slo-p99-ms", "5", "--json", str(work / "slo-a.json")),
        _cli("slo", KVSTORE, "--heap-kb", "192", "--rates", "300,600",
             "--json", str(work / "slo-b.json")),
        _cli("compare", str(work / "slo-a.json"), str(work / "slo-b.json")),
        _cli("slo", KVSTORE, "--heap-kb", "256", "--search", "--slo-p99-ms", "5",
             "--max-rate", "1600"),
    ]
    for collector in ("25.25.100", "gctk:Appel"):
        paths.append(_cli("check", "--benchmark", "jess", "--collector", collector,
                          "--scale", s))
        for kind in FAULT_KINDS:
            paths.append(_cli("check", "--benchmark", "jess", "--collector", collector,
                              "--scale", s, "--fault", f"{kind}@2"))

    def grid():
        import repro

        for spec in SPECS:
            for collector in COLLECTORS:
                for heap_kb in HEAPS_KB:
                    repro.run(spec, collector, heap_kb * 1024,
                              options=repro.RunOptions(scale=SCALE))
    grid.__name__ = f"{len(SPECS)} specs x {len(COLLECTORS)} collectors x {len(HEAPS_KB)} heaps"
    paths.append(grid)

    for example in sorted((ROOT / "examples").glob("*.py")):
        paths.append(_script(example, []))
    paths.append(_script(ROOT / "benchmarks" / "check_replay_path.py", [tier]))
    for workload in E2E_WORKLOADS:
        for trace in ("0", "1"):
            paths.append(_script(
                ROOT / "benchmarks" / "e2e" / "run.py",
                ["--workload", workload, "--seconds", "0", "--quick", "--trace", trace],
            ))
    return paths


def _script(path: Path, argv: List[str]) -> Callable[[], object]:
    def run():
        saved = sys.argv, list(sys.path)
        sys.argv = [str(path)] + argv
        sys.path.insert(0, str(path.parent))
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exit_:
            return exit_.code
        finally:
            sys.argv, sys.path[:] = saved
        return 0
    run.__name__ = " ".join([str(path.relative_to(ROOT))] + argv)
    return run


def census_one_tier(tier: str) -> Dict[str, object]:
    """Run every user path under the profiler; the entered defs and, per
    path, its exit value or the exception it raised."""
    os.cpu_count = lambda: 1  # pools forced serial: cells run in-process
    seen: Set[object] = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    outcomes = []
    sys.setprofile(profile)  # before the first import: module-level calls count
    try:
        with tempfile.TemporaryDirectory(prefix="census-") as work:
            for path in user_paths(tier, Path(work)):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        value = path()
                    outcome = f"exit {value}"
                    if value not in (0, None):
                        outcome += ": " + (sink.getvalue().strip().splitlines() or [""])[-1]
                except Exception:
                    outcome = "raised " + traceback.format_exc().strip().splitlines()[-1]
                outcomes.append([path.__name__, outcome])
    finally:
        sys.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    entered = sorted({
        (str(Path(code.co_filename).relative_to(ROOT)), code.co_firstlineno)
        for code in seen if code.co_filename.startswith(prefix)
    })
    return {"tier": tier, "entered": entered, "outcomes": outcomes}


# ----------------------------------------------------------------------
# The report (the parent interpreter)
# ----------------------------------------------------------------------
def all_defs() -> Dict[Def, str]:
    """Every ``def`` under ``src/repro``: (file, first line) -> qualname."""
    defs: Dict[Def, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(rel, first)] = ".".join(scope + [child.name])
                    visit(child, scope + [child.name])
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)
        visit(tree, [])
    return defs


def references(name: str, texts: Dict[str, List[str]]) -> List[str]:
    """``file:line`` of every whole-word use of ``name``, def lines excluded."""
    word = re.compile(r"\b%s\b" % re.escape(name))
    own = re.compile(r"^\s*(async\s+)?def\s+%s\b" % re.escape(name))
    return [
        f"{rel}:{number}"
        for rel, lines in texts.items()
        for number, line in enumerate(lines, start=1)
        if word.search(line) and not own.match(line)
    ]


def report(results: List[Dict[str, object]]) -> None:
    defs = all_defs()
    entered = {tuple(item) for result in results for item in result["entered"]}
    never = sorted(key for key in defs if key not in entered)
    texts = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8").splitlines()
        for base in (SRC, ROOT / "benchmarks", ROOT / "examples")
        for path in sorted(base.rglob("*.py"))
    }
    tests = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8").splitlines()
        for path in sorted((ROOT / "tests").rglob("*.py"))
    }
    for result in results:
        for name, outcome in result["outcomes"]:
            if outcome.startswith("raised"):
                print(f"# {result['tier']}: {name}: {outcome}")
    print(
        f"census: tiers {'+'.join(r['tier'] for r in results)}, "
        f"{len(results[0]['outcomes'])} user paths; "
        f"{len(defs)} defs under src/repro, {len(defs) - len(never)} entered, "
        f"{len(never)} never entered"
    )
    for key in never:
        qualname = defs[key]
        name = qualname.rsplit(".", 1)[-1]
        callers = references(name, texts)
        in_tests = len(references(name, tests))
        shown = ", ".join(callers[:4]) + (f", ... ({len(callers)})" if len(callers) > 4 else "")
        print(
            f"{key[0]}:{key[1]} {qualname}  "
            f"callers: {shown or 'none outside tests'}; test refs: {in_tests}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier", choices=TIERS, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tier:  # one tier, in this interpreter
        result = census_one_tier(args.tier)
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0
    results = []
    with tempfile.TemporaryDirectory(prefix="census-") as work:
        for tier in TIERS:
            out = Path(work) / f"{tier}.json"
            env = dict(os.environ, REPRO_SUBSTRATE_TIER=tier,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, __file__, "--tier", tier, "--out", str(out)],
                env=env, check=True, cwd=ROOT,
            )
            results.append(json.loads(out.read_text(encoding="utf-8")))
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
