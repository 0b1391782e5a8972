"""Benchmark for ``morphauto.analyze``: one process, one thread, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus|spectral \\
        --seed N --seconds S --trace 0|1

A single caller issues the next operation only after the previous one has
returned, cycling through the workload's inputs until the time is up and
every input has run at least once.  One operation is ``parse_morphism`` +
``analyze`` on the corpus (what ``corpus --run`` pays per entry) and
``analyze`` alone on the synthetic workloads.  Every verdict goes through
the gate in ``gate.py``.  The latency metrics take one sample per input:
its best time over the run.  Set-up is timed apart, in fresh processes
started between operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the traced
pass of ``tracing.py`` instead and prints the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "morphauto" / "corpus"
WORK_DIR = ROOT / ".perfbench"

DEPTH = 10_000  # the default AnalyzeOptions depth
# Set-up is timed in this many fresh processes, so that every sample pays
# for a cold import, and reported as the best of them.  On a shared 2-vCPU
# virtual machine a process runs either at full speed or about 1.45 times
# slower throughout its short life, and which it gets changes from one
# process to the next; the median of the samples follows whichever mode
# happened to be the more frequent in a run, the best one does not.
SETUP_REPEATS = 11
# Candidate tail percentiles, highest first: the tail is the highest with
# TAIL_BEYOND samples beyond it, or p50 when even that has fewer.  With one
# sample per input this gives p70 on the corpus (35 inputs) and p50 on the
# spectral workload (20 inputs).
TAIL_PER_MILLE = (999, 990, 900, 700, 500)
TAIL_BEYOND = 10

# name -> (unit, better)
END_TO_END = {
    "analyze_p50_ms": ("ms", "lower"),
    "analyze_tail_ms": ("ms", "lower"),
    "specs_per_s": ("1/s", "higher"),
    "decided_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], list]  # seed -> list of workloads.Item, in loop order
    parse_in_op: bool
    trace_inputs: int  # the traced pass covers this many leading inputs


WORKLOADS = {
    "corpus": Workload(
        lambda seed: workloads.corpus_workload(seed, CORPUS), True, len(workloads.CORPUS_NAMES)
    ),
    # every alphabet size, with and without an anagram pair
    "spectral": Workload(workloads.spectral_workload, False, 2 * len(workloads.SPECTRAL_SIZES)),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import ``morphauto`` afresh from this checkout's ``src``."""
    package_dir = SRC / "morphauto"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no package source at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "morphauto" or n.startswith("morphauto.")]:
        del sys.modules[name]
    pkg = importlib.import_module("morphauto")
    importlib.import_module("morphauto.cli")
    if Path(pkg.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported morphauto from {pkg.__file__}, not from {package_dir}")
    return pkg


def setup(workload: Workload, seed: int):
    """Import, input generation and parsing: everything outside the loop."""
    pkg = import_package()
    items = workload.make(seed)
    specs = None if workload.parse_in_op else [pkg.parse_morphism(item.text) for item in items]
    return pkg, items, specs


def percentile(ordered: list[float], per_mille: int) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many lie beyond it."""
    rank = max(1, -(-per_mille * len(ordered) // 1000))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The tail percentile (see TAIL_PER_MILLE), its value, and how many
    samples lie beyond it."""
    ordered = sorted(samples)
    for per_mille in TAIL_PER_MILLE:
        value, beyond = percentile(ordered, per_mille)
        if beyond >= TAIL_BEYOND or per_mille == TAIL_PER_MILLE[-1]:
            return per_mille / 10, value, beyond
    raise AssertionError("unreachable")


def closed_loop(pkg, workload: Workload, items, specs, seconds: float, checker: gate.Gate,
                side_task: Callable[[], None], side_runs: int):
    """Run operations back to back, cycling through the inputs, until
    ``seconds`` have passed and every input has run at least once.  Between
    operations, ``side_task`` runs ``side_runs`` times at even intervals over
    the run.  Returns each input's latencies and first verdict kind, by
    input name."""
    options = pkg.AnalyzeOptions(depth=DEPTH)
    analyze, parse = pkg.analyze, pkg.parse_morphism
    latencies: dict[str, list[float]] = {item.name: [] for item in items}
    kinds: dict[str, str] = {}
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    side_due = [begin + seconds * k / side_runs for k in range(side_runs)]
    n = 0
    while n < len(items) or clock() < deadline:
        while side_due and clock() >= side_due[0]:
            side_due.pop(0)
            side_task()
        i = n % len(items)
        item = items[i]
        start = clock()
        try:
            spec = parse(item.text) if workload.parse_in_op else specs[i]
            report = analyze(spec, options)
        except Exception as exc:  # every failure is counted, none is fatal
            latencies[item.name].append(clock() - start)
            checker.record(item, error=exc)
        else:
            latencies[item.name].append(clock() - start)
            checker.record(item, report)
            kinds.setdefault(item.name, report.verdict.kind)
        n += 1
    for _ in side_due:
        side_task()
    return latencies, kinds


def time_setup(name: str, seed: int) -> float:
    """Seconds of one set-up in a fresh process (see ``--setup-probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_untraced(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name]
    pkg, items, specs = setup(workload, seed)
    checker = gate.Gate(DEPTH)
    # The set-ups are spread over the run, like the operations, so that they
    # see the same machine.
    setup_times: list[float] = []
    latencies, kinds = closed_loop(
        pkg, workload, items, specs, seconds, checker,
        lambda: setup_times.append(time_setup(name, seed)), SETUP_REPEATS,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.replay_certificates()

    # One sample per input: its best time over the run.  The inputs are
    # revisited in turn, so an input's runs are spread over the whole run,
    # and the best of them is the program's own time rather than that of a
    # stretch in which the machine ran slower.
    best = [min(times) for times in latencies.values()]
    repeats = sorted(len(times) for times in latencies.values())
    every_op = [t for times in latencies.values() for t in times]
    decided = sum(1 for kind in kinds.values() if kind in ("automatic", "not_automatic"))
    p, tail, beyond = tail_percentile(best)
    values = {
        "analyze_p50_ms": percentile(sorted(best), 500)[0] * 1000,
        "analyze_tail_ms": tail * 1000,
        "specs_per_s": len(best) / sum(best),
        "decided_share": decided / len(items),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setup_times),
    }
    runs = f"best of {repeats[0]}..{repeats[-1]} runs"
    notes = {
        "analyze_p50_ms": f"p50 over {len(best)} inputs, each its {runs}",
        "analyze_tail_ms": f"p{p:g} over {len(best)} inputs, {beyond} beyond it",
        "specs_per_s": f"{len(best)} inputs over the sum of their best times",
        "decided_share": f"{decided} of {len(items)} distinct inputs",
        "setup_s": f"best of {SETUP_REPEATS} set-ups, each in a fresh process; "
        f"median {statistics.median(setup_times):.6g}, max {max(setup_times):.6g}",
    }
    for key, (unit, _) in END_TO_END.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {values[key]:.6g} {unit}{note}")
    error_rate = checker.failed / checker.attempted
    print(f"error_rate {error_rate:.6g}  ({checker.failed} failed of {checker.attempted} attempted)")
    print(
        f"every operation as timed: {len(every_op)} operations, "
        f"p50 {statistics.median(every_op) * 1000:.6g} ms, "
        f"{len(every_op) / sum(every_op):.6g} per s"
    )
    metrics = {key: {"value": values[key], "unit": unit} for key, (unit, _) in END_TO_END.items()}
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Time one set-up, print its seconds and exit; see time_setup.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            start = time.perf_counter()
            setup(workload, args.seed)
            print(time.perf_counter() - start)
            return 0
        if args.trace:
            pkg, items, specs = setup(workload, args.seed)
            checker, metrics = tracing.run_traced(
                pkg, workload, items, specs, args.workload, args.seed, args.seconds, WORK_DIR, DEPTH
            )
        else:
            checker, metrics = run_untraced(args.workload, args.seed, args.seconds)
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in checker.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
