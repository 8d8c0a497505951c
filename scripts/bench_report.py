#!/usr/bin/env python3
"""Record and compare simulation-kernel benchmark results.

Works on the JSON emitted by bench/kernel_hotpath (schema
profess-kernel-bench-v1) and maintains BENCH_kernel.json, the
kernel's perf trajectory: an append-only list of labelled runs so
a change's before/after numbers stay recorded next to the code.

Subcommands:
  show FILE...             print a table of one or more result files
  record --out TRAJ FILE...  append result files to a trajectory doc
  compare BASE CAND [--max-regression X] [--total]
                           compare per-run ns/access; exit 1 if any
                           run of CAND is more than X times slower
                           than BASE (CI perf-smoke gate).  --total
                           gates on the aggregate ns/access instead
                           (less noisy; used by the telemetry
                           overhead gate)
  counts BASE CAND         exit 1 unless BASE and CAND have the same
                           runs with the same exact work counts
                           (EXACT_COUNTS; CI perf gate and ctest)
  best FILE... --out OUT   keep the result file with the lowest
                           total ns/access (min over repeated runs,
                           the noise-robust estimator for tight
                           overhead gates on shared CI machines)
  metrics-diff BASE CAND [opts...]
                           diff two OpenMetrics exposition files
                           (--metrics-out output) series-by-series;
                           delegates to scripts/metrics_diff.py, so
                           its options (--rel-threshold,
                           --abs-threshold, --ignore, ...) apply
                           unchanged.  Pairs a perf-trajectory
                           comparison with a metric-level one in a
                           single tool invocation.

show and record accept --with-telemetry DIR: for each run of a
result file, DIR/<run name>/manifest.json (written by kernel_hotpath
--telemetry-out) is cross-linked so a perf-trajectory point carries
the exact config, seed and git sha that produced it.

Only the standard library is used.
"""

import argparse
import json
import os
import signal
import sys

# Die quietly when output is piped into head & co.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

TRAJ_SCHEMA = "profess-kernel-trajectory-v1"
BENCH_SCHEMA = "profess-kernel-bench-v1"

# Deterministic per-run work counts: a kernel change that keeps the
# simulation bit-identical but does different work shows up here.
EXACT_COUNTS = ("accesses", "swaps", "events", "sched_calls",
                "peak_events", "request_pool_nodes",
                "pending_pool_nodes")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != BENCH_SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def fmt_table(doc):
    lines = []
    label = doc.get("label", "?")
    mode = "quick" if doc.get("quick") else "full"
    lines.append(
        f"== {label} ({mode}, peak RSS "
        f"{doc.get('peak_rss_kb', 0) / 1024:.1f} MiB)"
    )
    lines.append(
        f"  {'run':<22} {'ns/access':>10} {'events/s':>12} "
        f"{'accesses':>10} {'swaps':>8}"
    )
    for r in doc["runs"]:
        lines.append(
            f"  {r['name']:<22} {r['ns_per_access']:>10.1f} "
            f"{r['events_per_sec']:>12.0f} {r['accesses']:>10} "
            f"{r['swaps']:>8}"
        )
    t = doc["total"]
    lines.append(
        f"  {'TOTAL':<22} {t['ns_per_access']:>10.1f} "
        f"{t['events_per_sec']:>12.0f} {t['accesses']:>10}"
    )
    return "\n".join(lines)


def telemetry_manifest(tdir, run_name):
    """Load DIR/<run name>/manifest.json, or None if absent."""
    path = os.path.join(tdir, run_name, "manifest.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def telemetry_link(tdir, run_name):
    """Reproducibility cross-link for one run (None if no manifest)."""
    m = telemetry_manifest(tdir, run_name)
    if m is None:
        return None
    return {
        "dir": os.path.join(tdir, run_name),
        "seed": m.get("seed"),
        "git_sha": m.get("git_sha"),
        "policy": m.get("policy"),
        "wall_seconds": m.get("wall_seconds"),
        "peak_rss_kb": m.get("peak_rss_kb"),
        "config": m.get("config"),
    }


def fmt_telemetry(doc, tdir):
    lines = [f"  telemetry ({tdir}):"]
    for r in doc["runs"]:
        link = telemetry_link(tdir, r["name"])
        if link is None:
            lines.append(f"    {r['name']:<22} (no manifest)")
            continue
        sha = (link["git_sha"] or "?")[:12]
        lines.append(
            f"    {r['name']:<22} seed={link['seed']} sha={sha} "
            f"wall={link['wall_seconds']:.2f}s "
            f"rss={link['peak_rss_kb'] / 1024:.0f}MiB"
        )
    return "\n".join(lines)


def cmd_show(args):
    for path in args.files:
        doc = load(path)
        print(fmt_table(doc))
        if args.with_telemetry:
            print(fmt_telemetry(doc, args.with_telemetry))
        print()
    return 0


def cmd_record(args):
    try:
        with open(args.out) as f:
            traj = json.load(f)
        if traj.get("schema") != TRAJ_SCHEMA:
            sys.exit(f"{args.out}: not a trajectory document")
    except FileNotFoundError:
        traj = {"schema": TRAJ_SCHEMA, "entries": []}

    for path in args.files:
        doc = load(path)
        if args.with_telemetry:
            for r in doc["runs"]:
                link = telemetry_link(args.with_telemetry, r["name"])
                if link is not None:
                    r["telemetry"] = link
        traj["entries"].append(doc)
        print(f"recorded {doc.get('label', '?')} from {path}")

    with open(args.out, "w") as f:
        json.dump(traj, f, indent=1)
        f.write("\n")
    print(f"{args.out}: {len(traj['entries'])} entries")
    return 0


def cmd_compare(args):
    base = load(args.base)
    cand = load(args.cand)
    base_runs = {r["name"]: r for r in base["runs"]}
    worst = 0.0
    failed = False
    print(
        f"  {'run':<22} {'base':>10} {'cand':>10} {'ratio':>7}"
        "   (ns/access)"
    )
    for r in cand["runs"]:
        b = base_runs.get(r["name"])
        if b is None:
            print(f"  {r['name']:<22} (no baseline)")
            continue
        ratio = (
            r["ns_per_access"] / b["ns_per_access"]
            if b["ns_per_access"] > 0
            else float("inf")
        )
        worst = max(worst, ratio)
        flag = ""
        if ratio > args.max_regression and not args.total:
            flag = "  << REGRESSION"
            failed = True
        print(
            f"  {r['name']:<22} {b['ns_per_access']:>10.1f} "
            f"{r['ns_per_access']:>10.1f} {ratio:>6.2f}x{flag}"
        )
    if args.total:
        # Gate on the matrix-wide aggregate only: per-run numbers on
        # a quick CI box are too noisy for tight (2%/15%) bounds.
        bt = base["total"]["ns_per_access"]
        ct = cand["total"]["ns_per_access"]
        ratio = ct / bt if bt > 0 else float("inf")
        failed = ratio > args.max_regression
        print(
            f"  {'TOTAL':<22} {bt:>10.1f} {ct:>10.1f} "
            f"{ratio:>6.2f}x{'  << REGRESSION' if failed else ''}"
        )
        worst = ratio
    print(
        f"worst ratio {worst:.2f}x "
        f"(limit {args.max_regression:.2f}x"
        f"{', total only' if args.total else ''})"
    )
    if failed:
        print("FAIL: kernel perf-smoke regression", file=sys.stderr)
        return 1
    print("OK")
    return 0


def cmd_counts(args):
    base = {r["name"]: r for r in load(args.base)["runs"]}
    cand = {r["name"]: r for r in load(args.cand)["runs"]}
    diffs = [f"  {name}: missing from {args.cand}"
             for name in base if name not in cand]
    for name, r in cand.items():
        b = base.get(name)
        if b is None:
            diffs.append(f"  {name}: missing from {args.base}")
            continue
        diffs += [f"  {name}: {k} {b.get(k)} -> {r.get(k)}"
                  for k in EXACT_COUNTS if b.get(k) != r.get(k)]
    if diffs:
        print("work counts differ:")
        print("\n".join(diffs))
        print("FAIL: kernel work counts changed", file=sys.stderr)
        return 1
    print(f"OK: {len(cand)} runs, counts {', '.join(EXACT_COUNTS)} "
          "identical")
    return 0


def cmd_best(args):
    best_path, best_doc = None, None
    for path in args.files:
        doc = load(path)
        t = doc["total"]["ns_per_access"]
        if (
            best_doc is None
            or t < best_doc["total"]["ns_per_access"]
        ):
            best_path, best_doc = path, doc
    with open(args.out, "w") as f:
        json.dump(best_doc, f, indent=1)
        f.write("\n")
    print(
        f"best of {len(args.files)}: {best_path} "
        f"({best_doc['total']['ns_per_access']:.1f} ns/access) "
        f"-> {args.out}"
    )
    return 0


def cmd_metrics_diff(args):
    # Late import so bench-only uses never touch the sibling module.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import metrics_diff

    return metrics_diff.main(args.args)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("show", help="print result tables")
    s.add_argument("files", nargs="+")
    s.add_argument(
        "--with-telemetry",
        metavar="DIR",
        help="cross-link run manifests from a --telemetry-out dir",
    )
    s.set_defaults(fn=cmd_show)

    s = sub.add_parser("record", help="append to a trajectory doc")
    s.add_argument("--out", required=True)
    s.add_argument("files", nargs="+")
    s.add_argument(
        "--with-telemetry",
        metavar="DIR",
        help="embed run-manifest cross-links into recorded entries",
    )
    s.set_defaults(fn=cmd_record)

    s = sub.add_parser("compare", help="CI regression gate")
    s.add_argument("base")
    s.add_argument("cand")
    s.add_argument("--max-regression", type=float, default=2.0)
    s.add_argument(
        "--total",
        action="store_true",
        help="gate on total ns/access instead of per-run",
    )
    s.set_defaults(fn=cmd_compare)

    s = sub.add_parser("counts", help="exact work-count gate")
    s.add_argument("base")
    s.add_argument("cand")
    s.set_defaults(fn=cmd_counts)

    s = sub.add_parser("best", help="pick the fastest of N results")
    s.add_argument("files", nargs="+")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_best)

    s = sub.add_parser(
        "metrics-diff",
        help="diff two OpenMetrics expositions (metrics_diff.py)",
    )
    s.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="arguments passed through to metrics_diff.py",
    )
    s.set_defaults(fn=cmd_metrics_diff)

    args = p.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
