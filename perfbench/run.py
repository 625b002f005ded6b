"""Benchmark for the reflector library: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload certify|census|query --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports the library from ./src and
needs nothing outside the standard library.

--trace 0 reports the end-to-end metrics.  `setup_s` is the median, over
several fresh interpreters, of `import reflector` plus the catalog and its
lazy T8 overlattice.  Then the workload runs warm, whole passes at a time,
until S seconds have passed.  Times, the S seconds included, are counted
in seconds at a reference CPU speed (see speed.py), because the speed of
a core on a shared machine drifts by more than any useful bound; the wall
times are printed beside them and kept in the result file.

--trace 1 reports the per-layer metrics instead.  It runs untraced passes
for S seconds, then traced passes for S seconds, and reports the traced
pass time minus the untraced one as the tracing overhead.  Span times are
counted at reference speed too, without the probe time inside them.

Every item's output is checked; a wrong answer, an unexpected exit code or
an exception counts as a failed item.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it give a
stamp (interpreter, cores, CPU, commit, seed, source size) and a table
that also shows failed_frac and the sample counts.  Full results and the
spans of a traced run go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7

# runs in a fresh interpreter; the timer starts before `import reflector`,
# and the speed probe runs before and after the timed part
SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
before = speed.probe_seconds()
start = time.perf_counter()
import reflector
reflector.default_catalog().build("T8")
elapsed = time.perf_counter() - start
if not reflector.__file__.startswith(sys.argv[1]):
    sys.exit("imported reflector from " + reflector.__file__)
print(repr(elapsed), repr((before + speed.probe_seconds()) / 2))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup() -> tuple[float, float]:
    """Reference-speed and wall seconds of set-up, medians over fresh interpreters."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, probe_s = map(float, done.stdout.split())
        scaled.append(elapsed * speed.NOMINAL_S / probe_s)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def run_passes(workload, seconds: float, clock, tracer=None) -> dict:
    """Whole passes until `clock` counts `seconds`; checks every item.

    Times are kept as (start, end) perf_counter pairs, so the caller can
    read them as wall time or at reference speed.  Counting the run length
    at reference speed too keeps the number of passes the same on a slow
    and on a fast core.
    """
    passes, items, problems = [], [], []
    failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for item in workload.pass_items():
            if tracer is not None:
                tracer.item = len(items)
            t0 = perf_counter()
            try:
                result = item.call()
            except Exception as exc:  # a crashing item is a failed item, not a crashed run
                items.append((t0, perf_counter()))
                failed += 1
                problems.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            items.append((t0, perf_counter()))
            bad = item.check(result)
            if bad:
                failed += 1
                problems.extend(f"{item.label}: {b}" for b in bad)
        passes.append((pass_start, perf_counter()))
        if clock(start, perf_counter()) >= seconds:
            break
    return {
        "span": (start, perf_counter()),
        "passes": passes,
        "items": items,
        "attempted": len(items),
        "failed": failed,
        "problems": problems,
    }


def timings(run: dict, clock) -> dict:
    """pass_s, items_per_s and item percentiles, with `clock(a, b)` as the seconds."""
    latencies_ms = [clock(a, b) * 1000 for a, b in run["items"]]
    return {
        "pass_s": statistics.median(clock(a, b) for a, b in run["passes"]),
        "items_per_s": (run["attempted"] - run["failed"]) / clock(*run["span"]),
        "item_p50_ms": percentile(latencies_ms, 0.5),
        "item_p90_ms": percentile(latencies_ms, 0.9),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        # what `wc -l src/reflector/*.py` prints as its total
        "source_lines": sum(p.read_bytes().count(b"\n") for p in SRC.glob("reflector/*.py")),
    }


def wall(a: float, b: float) -> float:
    return b - a


def end_to_end(workload, seconds: float) -> tuple[dict, dict, dict]:
    setup_s, setup_wall_s = measure_setup()
    with speed.SpeedClock() as clock:
        run = run_passes(workload, seconds, clock.seconds)
    metrics = {"setup_s": setup_s, **timings(run, clock.seconds)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {
        "failed_frac": run["failed"] / run["attempted"],
        "passes": len(run["passes"]),
        "items": run["attempted"],
        "wall": {"setup_s": setup_wall_s, **timings(run, wall)},
        # reference-speed seconds per wall second; below 1 the core ran slow
        "speed_vs_reference": clock.seconds(*run["span"]) / wall(*run["span"]),
    }
    return metrics, END_TO_END_UNITS, {"run": run, "extra": extra}


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, dict]:
    tracer = tracing.Tracer()
    with speed.SpeedClock() as clock:
        plain = run_passes(workload, seconds, clock.seconds)
        tracer.install()
        try:
            traced = run_passes(workload, seconds, clock.seconds, tracer)
        finally:
            tracer.uninstall()
    plain_s = statistics.median(clock.seconds(a, b) for a, b in plain["passes"])
    traced_s = statistics.median(clock.seconds(a, b) for a, b in traced["passes"])
    metrics = tracer.metrics(len(traced["passes"]), clock.seconds)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    tracer.write(spans_path)
    run = {key: plain[key] + traced[key] for key in ("attempted", "failed", "problems")}
    extra = {
        "untraced_pass_s": plain_s,
        "passes": [len(plain["passes"]), len(traced["passes"])],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, tracing.metric_units(), {"run": run, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "census", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "reflector" / "__init__.py").is_file():
        print(f"perfbench: no reflector source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reflector

    if not reflector.__file__.startswith(str(SRC)):
        print(f"perfbench: imported reflector from {reflector.__file__}", file=sys.stderr)
        return 2
    reflector.default_catalog().build("T8")  # the lazy set-up users pay once
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, units, detail = per_layer(workload, args.seconds, base.with_suffix(".spans.json"))
    else:
        metrics, units, detail = end_to_end(workload, args.seconds)
    run = detail["run"]

    info = stamp(args.seed)
    print(json.dumps({"stamp": info}, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {run['attempted']}  failed {run['failed']}")
    for key, value in detail["extra"].items():
        print(f"  {key} = {value}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for problem in run["problems"][:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = {"stamp": info, "workload": args.workload, "trace": args.trace,
            "extra": detail["extra"], "problems": run["problems"], **result}
    base.with_suffix(".json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
