"""Benchmark of the `ecat` pipeline on four workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 24 --trace 0

Run from the repository root. `ecat` is imported from `src/`; without it the
benchmark exits with code 2 and prints no result.

--trace 0 runs at least two passes over the workload, and more until the
next one would end after --seconds, and reports the end-to-end metrics,
with times rescaled to a reference machine speed (see speed.py). --trace 1
runs one untraced and one traced pass and reports the per-layer metrics; the
span tree goes to .bench_out/. --workload all runs each workload in its own
process in turn. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [p for p in (str(ROOT), str(SRC)) if p not in sys.path]

from perfbench import speed, tracer  # noqa: E402  (needs ROOT on sys.path)

OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("check", "reject", "centers", "lattice8")
# Set-up runs this many times; setup_s is the median.
SETUP_REPEATS = 5
# Passes in a --trace 0 run, at the least. A pass of `check` or `lattice8`
# takes 12 to 17 s, so one pass would be their only sample.
MIN_PASSES = 2
# Benchmark modules that hold `ecat` objects; imported again on each set-up.
RELOADED = ("perfbench.fixtures", "perfbench.workloads")


@dataclass
class PassResult:
    seconds: float = 0.0
    reference_s: float = 0.0  # seconds at the reference machine speed
    verdicts: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    stage_s: dict = field(default_factory=dict)
    violations: int = 0


def fresh_workloads():
    """Import `ecat` and the workload definitions anew."""
    for name in list(sys.modules):
        if name.split(".")[0] == "ecat" or name in RELOADED:
            del sys.modules[name]
    module = importlib.import_module("perfbench.workloads")
    ecat_file = Path(sys.modules["ecat"].__file__).resolve()
    if SRC not in ecat_file.parents:
        raise ImportError(f"ecat was imported from {ecat_file}, not from {SRC}")
    return module


def setup(workload: str, seed: int):
    """Stages of the last of SETUP_REPEATS set-ups, and each set-up's
    (wall, reference-speed) seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        stages = None
        gc.collect()
        stages, wall, ref = speed.timed(lambda: fresh_workloads().build(workload, seed))
        times.append((wall, ref))
    return stages, times


def run_pass(stages, trace=None) -> PassResult:
    """Run every stage once, checking each verdict against its answer."""
    res = PassResult()
    outputs = {}
    start = time.perf_counter()
    for st in stages:
        t0 = time.perf_counter()
        try:
            with trace.span("stage:" + st.name) if trace else contextlib.nullcontext():
                out = st.run(outputs)
            got = st.verdict(out)
        except Exception as exc:  # a stage that raises has failed; the pass goes on
            res.failures[st.name] = f"raised {type(exc).__name__}: {exc}"
        else:
            outputs[st.name] = out
            res.verdicts[st.name] = got
            if got != st.expected:
                res.failures[st.name] = f"verdict {got!r}, expected {st.expected!r}"
            res.violations += len(getattr(out, "violations", ()))
        res.stage_s[st.name] = time.perf_counter() - t0
    res.seconds = time.perf_counter() - start
    return res


def measure(stages, seconds: float) -> list:
    """At least MIN_PASSES passes, then more until the next one, at the
    median pass time, would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        with speed.SpeedProbe() as probe:
            res = run_pass(stages)
        res.reference_s = probe.normalise(res.seconds)
        passes.append(res)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and next_end > seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def report_failures(passes) -> None:
    for i, p in enumerate(passes):
        for name, why in p.failures.items():
            print(f"FAIL pass {i}: {name}: {why}", file=sys.stderr)


def stages_by_time(passes) -> list:
    names = passes[0].stage_s
    return sorted(names, key=lambda n: -statistics.median(p.stage_s[n] for p in passes))


def untraced(workload, stages, setup_times, seconds) -> dict:
    passes = measure(stages, seconds)
    report_failures(passes)
    attempted = len(stages) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    run_s = statistics.median(p.reference_s for p in passes)
    setup_s = statistics.median(ref for _, ref in setup_times)
    print(f"{workload}: {len(passes)} passes; run_s {run_s:.4f}, setup_s {setup_s:.4f} "
          "(median seconds at reference speed)")
    print(f"  pass wall s      {[round(p.seconds, 4) for p in passes]}")
    print(f"  pass reference s {[round(p.reference_s, 4) for p in passes]}")
    print(f"  setup wall s     {[round(wall, 4) for wall, _ in setup_times]}")
    print(f"  setup reference s {[round(ref, 4) for _, ref in setup_times]}")
    print("  median stage wall s:")
    for name in stages_by_time(passes):
        print(f"  {statistics.median(p.stage_s[name] for p in passes):9.4f}  {name}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "pass_share": {"value": 1 - failed / attempted, "unit": "share"},
        },
    }


def traced(workload, stages, seed) -> dict:
    gc.collect()
    with speed.SpeedProbe() as probe:
        plain = run_pass(stages)
    plain.reference_s = probe.normalise(plain.seconds)
    gc.collect()
    with tracer.Tracer() as tr, speed.SpeedProbe() as probe:
        traced_pass = run_pass(stages, tr)
    traced_pass.reference_s = probe.normalise(traced_pass.seconds)
    leftover = tracer.installed_wrappers()
    report_failures([plain, traced_pass])
    for name in leftover:
        print(f"FAIL wrapper left installed: {name}", file=sys.stderr)
    same = plain.verdicts == traced_pass.verdicts
    if not same:
        print("FAIL traced and untraced verdicts differ", file=sys.stderr)
    failed = len(plain.failures) + len(traced_pass.failures)

    totals = tr.totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in tracer.SPANNED:
        put(f"{name}.self_s", totals[name]["self_s"], "s")
    for name in tracer.SIZED:
        put(f"{name}.entries", totals[name]["entries"], "count")
    put("enriched.cartesian_product_enriched.calls",
        totals["enriched.cartesian_product_enriched"]["calls"], "count")
    for name in tracer.COUNTED:
        put(f"{name}.calls", totals[name]["calls"], "count")
    put("report.Budget.spent", tr.budget_total, "count")
    for name in tracer.BUDGETED:
        put(f"report.Budget.spent.{name}", totals[name]["budget"], "count")
    put("report.ValidationReport.violations", traced_pass.violations, "count")
    put("trace.overhead_s", traced_pass.reference_s - plain.reference_s, "s")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    out_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": plain.seconds,
        "traced_wall_s": traced_pass.seconds,
        "untraced_run_s": plain.reference_s,
        "traced_run_s": traced_pass.reference_s,
        "stage_s": traced_pass.stage_s,
        "totals": totals,
        "tree": tr.tree(),
    }, indent=1))
    print(f"{workload}: run_s untraced {plain.reference_s:.4f}, traced "
          f"{traced_pass.reference_s:.4f} (wall {plain.seconds:.4f} s, "
          f"{traced_pass.seconds:.4f} s); span tree in {out_file.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and same and not leftover,
        "attempted": 2 * len(stages),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a child process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {w} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
            print(f"{w:9s} {name:55s} {metric['value']:.6g} {metric['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecat" / "__init__.py").is_file():
        print(f"no ecat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        stages, setup_times = setup(args.workload, args.seed)
        if args.trace:
            result = traced(args.workload, stages, args.seed)
        else:
            result = untraced(args.workload, stages, setup_times, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
