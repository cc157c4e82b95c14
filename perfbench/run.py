"""tropbetti benchmark: one workload, driven from outside, in cold processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every pass is a fresh single-threaded
interpreter (``perfbench/worker.py``), so process-lifetime caches start
empty, as they do for a CLI user.  Passes form a closed loop with one
caller: the next starts when the previous one has ended.  A run makes
whole passes until ``--seconds`` have elapsed, at least one, and reports
medians over them.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json, times in seconds at reference speed (``probe.py``); with ``--trace 1`` the passes run under the outside-in
tracer (``perfbench/tracer.py``) and it prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 21
DEADLINE_S = 170  # every run must end within 180 s


class PassError(RuntimeError):
    pass


def spawn(root: Path, env: dict, deadline: float, *args: str) -> dict:
    """Run one worker to completion; its result plus the spawn time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before the pass started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"worker {' '.join(args)} passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise PassError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["t0"] = t0
    return result


def environment(root: Path) -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return (
        f"python {platform.python_version()}  nproc {os.cpu_count()}  cpu {cpu}  commit {commit}"
    )


def ref_setup(result: dict) -> float:
    """Set-up from spawn to its end, in seconds at reference speed.  The
    interpreter start before the probe starts is scaled like the set-up."""
    return (result["probe_start"] - result["t0"]) * result["setup_scale"] + result["setup_ref"]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    package = root / "src" / "tropbetti"
    if not (package / "__init__.py").is_file():
        print(f"error: no tropbetti sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # The build step: byte-compile once, so set-up time never includes it.
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: tropbetti sources do not compile", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    inputs = [args.workload, "--seed", str(args.seed)]
    try:
        start = time.monotonic()
        passes = []
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(spawn(root, env, deadline, *inputs, *(["--trace"] if args.trace else [])))
        setup_runs = list(passes)
        while not args.trace and len(setup_runs) < SETUP_SAMPLES:
            setup_runs.append(spawn(root, env, deadline, *inputs, "--setup-only"))
    except PassError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    raw_walls = [p["work_end"] - p["t0"] for p in passes]
    raw_setups = [p["setup_end"] - p["t0"] for p in setup_runs]
    items = [item for p in passes for item in p["items"]]
    failed = [item for item in items if item["error"] is not None]
    latency = lambda item: item.get("ref_seconds", item["seconds"])  # noqa: E731
    latencies = [latency(item) for item in items]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(environment(root))
    print(f"passes {len(passes)}  items {len(items)}  set-up samples {len(setup_runs)}")
    if args.trace:
        names = spec["per_layer"]
        values = {"trace.wall_s": statistics.median(raw_walls)}
        for m in names:
            if m["name"] not in values:
                values[m["name"]] = statistics.median(p["trace"]["metrics"][m["name"]] for p in passes)
        print("span  calls  inclusive_s  self_s  errors  (middle pass)")
        table = passes[len(passes) // 2]["trace"]["table"]
        for name, calls, incl, self_s, errors in table:
            print(f"  {name}  {calls}  {incl:.4f}  {self_s:.4f}  {errors}")
    else:
        names = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(ref_setup(p) + p["work_ref"] for p in passes),
            "setup_s": statistics.median(ref_setup(s) for s in setup_runs),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        # As the clock read them, for comparison with the host's drift.
        print(f"clock_wall_s {statistics.median(raw_walls):.6g} s")
        print(f"clock_setup_s {statistics.median(raw_setups):.6g} s")
        units = [p["probe_unit_ms"] for p in passes]
        print(f"probe_unit_ms {statistics.median(units):.6g} ms (min {min(units):.4g}, max {max(units):.4g})")
        # Printed, not gated: one short item each, so host noise dominates.
        print(f"system_p50_s {statistics.median(latencies):.6g} s")
        print(f"system_p90_s {p90(latencies):.6g} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {len(failed) / len(items):.6g} ({len(failed)} of {len(items)} items failed)")
    for item in failed:
        print(f"FAILED {item['name']}: {item['error']}")
    ranked = sorted(items, key=lambda item: -latency(item))
    for item in ranked[:5]:
        shape = " ".join(f"{k}={item[k]}" for k in ("n", "k", "m", "ell") if k in item)
        print(f"slow {item['name']} {latency(item):.4f} s {shape}")
    print("per-item s " + " ".join(f"{item['name']}={latency(item):.4f}" for item in items))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(items),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
