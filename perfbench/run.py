#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload fig13_slice --seed 1 \
        --seconds 40 --trace 0

Run from the repository root.  The script builds perfbench/ (which
compiles the simulator from src/) into $CARGO_TARGET_DIR, default
.bench_build, runs the measuring program for --seconds, checks every
job's simulated-result digest, prints a report and, as its last line,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones.  See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
PINS = HERE / "pinned_digests.json"
RUN_TIMEOUT_S = 170

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "host_ns_per_access": ("ns", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "trace.next_calls": ("count", "lower"),
    "trace.ns_per_next": ("ns", "lower"),
    "cpu.instr": ("count", "lower"),
    "cpu.mem_reads": ("count", "lower"),
    "cpu.mem_writes": ("count", "lower"),
    "cpu.accesses_per_kinstr": ("1/kinstr", "lower"),
    "os.translations": ("count", "lower"),
    "os.xlate_cache_hit_rate": ("ratio", "higher"),
    "os.ns_per_translate": ("ns", "lower"),
    "hybrid.served": ("count", "lower"),
    "hybrid.stc_hit_rate": ("ratio", "higher"),
    "hybrid.st_fills_per_kaccess": ("1/kaccess", "lower"),
    "hybrid.st_writebacks": ("count", "lower"),
    "hybrid.swaps_per_kaccess": ("1/kaccess", "lower"),
    "hybrid.m1_fraction": ("ratio", "higher"),
    "hybrid.access_calls": ("count", "lower"),
    "hybrid.ns_per_access_call": ("ns", "lower"),
    "hybrid.self_ns_per_access_call": ("ns", "lower"),
    "core.mdm.path_no_benefit": ("count", "lower"),
    "core.mdm.path_vacant": ("count", "lower"),
    "core.mdm.path_idle_m1": ("count", "lower"),
    "core.mdm.path_depleted": ("count", "lower"),
    "core.mdm.path_net_benefit": ("count", "lower"),
    "core.mdm.path_rejected": ("count", "lower"),
    "core.profess.guidance_same_program": ("count", "lower"),
    "core.profess.guidance_case1": ("count", "lower"),
    "core.profess.guidance_case2": ("count", "lower"),
    "core.profess.guidance_case3": ("count", "lower"),
    "core.profess.guidance_default": ("count", "lower"),
    "core.rsm.periods": ("count", "lower"),
    "core.swap_accept_frac": ("ratio", "higher"),
    "mem.sched_calls_per_access": ("1/access", "lower"),
    "mem.ns_per_sched_call": ("ns", "lower"),
    "mem.read_q_mean": ("requests", "lower"),
    "mem.write_q_mean": ("requests", "lower"),
    "mem.row_hit_rate": ("ratio", "higher"),
    "mem.demand_reads": ("count", "lower"),
    "mem.demand_writes": ("count", "lower"),
    "mem.st_reads": ("count", "lower"),
    "mem.st_writes": ("count", "lower"),
    "mem.bus_busy_frac": ("ratio", "lower"),
    "mem.swap_busy_frac": ("ratio", "lower"),
    "mem.read_latency_ns": ("ns", "lower"),
    "eq.events_per_access": ("1/access", "lower"),
    "eq.residual_ns_per_access": ("ns", "lower"),
    "sim.jobs": ("count", "lower"),
    "sim.alone_runs": ("count", "lower"),
    "sim.run_share": ("ratio", "higher"),
    "tracing_overhead": ("ratio", "lower"),
}

APPROXIMATIONS = (
    "host times of trace/hybrid/mem spans are call-sampled "
    "(1 in 64 calls timed) and include the clock reads",
    "hybrid.ns_per_access_call includes the policy and the channel "
    "push it makes; hybrid.self_ns_per_access_call subtracts the "
    "scheduler calls nested in it, estimated as access_calls x "
    "(stc_hit_rate + (st_fills + swaps) / served) of the measurement "
    "window",
    "eq.residual_ns_per_access = traced System::run wall minus the "
    "trace, access and non-nested scheduler spans: event dispatch, "
    "the core model, translation and anything untimed",
    "os.ns_per_translate replays the recorded page stream through a "
    "standalone PageAllocator of the same geometry and seed",
)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure and build perfbench; return the program's path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found; run from the "
             "repository root")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                         ".bench_build"))
    bdir = (root / target / "perfbench").resolve()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **quiet).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      **quiet).returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def measure(exe, root, args):
    cmd = [str(exe), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measuring program failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def check(run, pins):
    """Count failed jobs.

    Return (attempted, failed, notes, whether the traced repetitions'
    exact counts repeat).
    """
    reps = run["reps"]
    pinned = pins.get(run["workload"], {}).get(str(run["seed"]))
    if pinned is not None:
        reference, source = pinned, "pinned digests"
    else:
        first = next(r for r in reps if not r["traced"])
        reference = {j["name"]: j["digest"] for j in first["jobs"]}
        source = ("no pinned digest for this seed: first untraced "
                  "repetition")
    attempted = failed = 0
    for rep in reps:
        for job in rep["jobs"]:
            attempted += 1
            if not job["completed"] or \
                    job["digest"] != reference.get(job["name"]):
                failed += 1
    notes = [f"digests checked against {source}"]
    counts = {r["counts_digest"] for r in reps if r["traced"]}
    if len(counts) > 1:
        notes.append("traced exact counts differ between repetitions")
    return attempted, failed, notes, len(counts) <= 1


def end_to_end(run):
    reps = run["reps"]
    metrics = {k: statistics.median(r[k] for r in reps)
               for k in ("wall_s", "cpu_s", "setup_s")}
    metrics["host_ns_per_access"] = statistics.median(
        r["run_s"] * 1e9 / r["accesses"] for r in reps)
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    return {k: metrics[k] for k in END_TO_END}


def per_layer(run):
    traced = [r for r in run["reps"] if r["traced"]]
    plain = [r for r in run["reps"] if not r["traced"]]
    values = {k: float(statistics.median(r["layers"][k] for r in traced))
              for k in traced[0]["layers"]}
    values["os.ns_per_translate"] = run["os_ns_per_translate"]
    values["sim.run_share"] = statistics.median(
        r["run_s"] / r["wall_s"] for r in plain)
    values["tracing_overhead"] = (
        statistics.median(r["run_s"] for r in traced) /
        statistics.median(r["run_s"] for r in plain))
    return {k: values[k] for k in PER_LAYER}


def report(run, metrics, units, attempted, failed, notes):
    prov = run["provenance"]
    traced = sum(1 for r in run["reps"] if r["traced"])
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"repetitions {len(run['reps']) - traced} untraced, "
          f"{traced} traced (values are medians over repetitions)")
    print(f"build: g++ {prov['compiler']}, {prov['build_type']}, "
          f"flags '{prov['flags'].strip()}'")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:36s} {value:16.6g} {unit:10s} ({better} is "
              f"better)")
    print(f"  {'fail_frac':36s} {failed / attempted:16.6g} "
          f"{'ratio':10s} (lower is better; {failed}/{attempted} jobs)")
    print("simulated headline (first repetition):")
    for name, value in run["headline"].items():
        print(f"  {name:36s} {value}")
    print("job digests (first repetition):")
    for job in run["reps"][0]["jobs"]:
        print(f"  {job['name']:24s} {job['digest']}")
    for note in notes:
        print(f"note: {note}")
    if run["trace"]:
        for note in APPROXIMATIONS:
            print(f"approximation: {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    exe = build(root)
    run = measure(exe, root, args)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    attempted, failed, notes, counts_repeat = check(run, pins)
    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        metrics, units = end_to_end(run), END_TO_END
    report(run, metrics, units, attempted, failed, notes)
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
