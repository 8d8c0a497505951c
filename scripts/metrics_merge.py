#!/usr/bin/env python3
"""Merge per-run metric shards into one OpenMetrics exposition.

Stdlib-only port of the C++ merge path (sim::mergeShards ->
telemetry::writeOpenMetrics): reads every ``*.shard`` file under a
shard directory (``<exposition>.shards/``) and writes the combined
exposition, byte-for-byte identical to the file the simulator itself
produces when the directory holds exactly the shards it merged (a
fresh sweep).  CI diffs the two outputs (``cmp``) to pin the format.

Byte fidelity rests on two facts:

* shard scalar/sum values were printed by C ``%.17g``, which
  round-trips IEEE binary64 exactly, so the merged exposition can
  emit the shard's token verbatim -- re-parsing and re-printing in
  either language reproduces it;
* histogram ``le`` edges are computed (``width * (i+1)``) and
  printed with ``%.17g``; CPython's ``%`` formatting is correctly
  rounded like glibc's, so both render the same bytes.

Usage: metrics_merge.py SHARD_DIR [-o OUT]
"""

import argparse
import os
import sys


def die(msg):
    sys.stderr.write("metrics_merge: %s\n" % msg)
    sys.exit(1)


class Scalar:
    __slots__ = ("name", "is_counter", "token")

    def __init__(self, name, is_counter, token):
        self.name = name
        self.is_counter = is_counter
        self.token = token  # verbatim %.17g text from the shard


class Hist:
    __slots__ = ("name", "width", "underflow", "count", "sum_token",
                 "buckets")

    def __init__(self, name, width, underflow, count, sum_token,
                 buckets):
        self.name = name
        self.width = width
        self.underflow = underflow
        self.count = count
        self.sum_token = sum_token
        self.buckets = buckets


class Snapshot:
    __slots__ = ("run", "scalars", "hists")

    def __init__(self):
        self.run = None
        self.scalars = []
        self.hists = []


def parse_shard(path):
    snap = Snapshot()
    have_end = False
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "profess-shard 1":
        die("%s:1: not a profess-shard v1 file" % path)
    for lineno, line in enumerate(lines[1:], start=2):
        if have_end:
            die("%s:%d: content after 'end'" % (path, lineno))
        if line.startswith("run "):
            snap.run = line[4:]
            continue
        if line == "end":
            have_end = True
            continue
        toks = line.split()
        if toks and toks[0] == "scalar":
            if len(toks) != 4 or toks[2] not in ("c", "g"):
                die("%s:%d: malformed scalar record" % (path, lineno))
            snap.scalars.append(
                Scalar(toks[1], toks[2] == "c", toks[3]))
        elif toks and toks[0] == "hist":
            if len(toks) < 7:
                die("%s:%d: malformed hist record" % (path, lineno))
            n = int(toks[6])
            if len(toks) != 7 + n:
                die("%s:%d: hist record truncated" % (path, lineno))
            snap.hists.append(
                Hist(toks[1], float(toks[2]), int(toks[3]),
                     int(toks[4]), toks[5],
                     [int(b) for b in toks[7:]]))
        else:
            die("%s:%d: unknown shard record" % (path, lineno))
    if snap.run is None or not have_end:
        die("%s: truncated metrics shard" % path)
    return snap


def is_instance_segment(seg, prefix):
    """Return the digits of '<prefix><digits>' or None."""
    if len(seg) <= len(prefix) or not seg.startswith(prefix):
        return None
    digits = seg[len(prefix):]
    return digits if digits.isdigit() else None


def map_dotted_name(dotted, histogram):
    """Port of telemetry::mapDottedName: (family, labels)."""
    segs = dotted.split(".")
    if histogram and len(segs) == 5 and segs[0] == "latency":
        prog = is_instance_segment(segs[1], "p")
        if prog is not None:
            return "profess_latency", [("program", prog),
                                       ("tier", segs[2]),
                                       ("kind", segs[3]),
                                       ("phase", segs[4])]
    labels = []
    joined = []
    for seg in segs:
        for prefix, label in (("ch", "channel"), ("core", "core"),
                              ("p", "program")):
            digits = is_instance_segment(seg, prefix)
            if digits is not None:
                labels.append((label, digits))
                break
        else:
            joined.append(seg)
    return "profess_" + "_".join(joined), labels


def escape_label_value(s):
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_labels(labels, run, le=None):
    parts = ["%s=\"%s\"" % (k, escape_label_value(v))
             for k, v in labels]
    parts.append("run=\"%s\"" % escape_label_value(run))
    if le is not None:
        parts.append("le=\"%s\"" % le)
    return "{" + ",".join(parts) + "}"


def write_exposition(out, snaps):
    families = {}  # name -> [type, scalar samples, hist samples]
    for snap in snaps:
        for s in snap.scalars:
            fam_name, labels = map_dotted_name(s.name, False)
            kind = "counter" if s.is_counter else "gauge"
            fam = families.setdefault(fam_name, [kind, [], []])
            if fam[0] != kind:
                die("family '%s' mixes %s and %s samples"
                    % (fam_name, fam[0], kind))
            fam[1].append((snap.run, s.name, labels, s))
        for h in snap.hists:
            fam_name, labels = map_dotted_name(h.name, True)
            fam = families.setdefault(fam_name, ["histogram", [], []])
            if fam[0] != "histogram":
                die("family '%s' mixes %s and histogram samples"
                    % (fam_name, fam[0]))
            fam[2].append((snap.run, h.name, labels, h))

    for name in sorted(families):
        kind, scalars, hists = families[name]
        out.write("# TYPE %s %s\n" % (name, kind))
        scalars.sort(key=lambda t: (t[0], t[1]))
        hists.sort(key=lambda t: (t[0], t[1]))
        suffix = "_total" if kind == "counter" else ""
        for run, _dotted, labels, s in scalars:
            out.write("%s%s%s %s\n"
                      % (name, suffix, render_labels(labels, run),
                         s.token))
        for run, _dotted, labels, h in hists:
            # Cumulative buckets: underflow (x < 0) falls in every
            # bucket; the last stored bucket is the overflow count
            # and only contributes to +Inf.
            cum = h.underflow
            for i in range(len(h.buckets) - 1):
                cum += h.buckets[i]
                le = "%.17g" % (h.width * (i + 1))
                out.write("%s_bucket%s %d\n"
                          % (name, render_labels(labels, run, le),
                             cum))
            out.write("%s_bucket%s %d\n"
                      % (name, render_labels(labels, run, "+Inf"),
                         h.count))
            out.write("%s_count%s %d\n"
                      % (name, render_labels(labels, run), h.count))
            out.write("%s_sum%s %s\n"
                      % (name, render_labels(labels, run),
                         h.sum_token))
    out.write("# EOF\n")


def main():
    ap = argparse.ArgumentParser(
        description="Merge per-run metric shards into one "
                    "OpenMetrics exposition.")
    ap.add_argument("shard_dir",
                    help="shard directory (<exposition>.shards/)")
    ap.add_argument("-o", "--output",
                    help="output file (default: stdout)")
    args = ap.parse_args()

    try:
        names = sorted(n for n in os.listdir(args.shard_dir)
                       if n.endswith(".shard"))
    except OSError as e:
        die("cannot list '%s': %s" % (args.shard_dir, e))
    if not names:
        die("no *.shard files in '%s'" % args.shard_dir)

    snaps = [parse_shard(os.path.join(args.shard_dir, n))
             for n in names]
    snaps.sort(key=lambda s: s.run)

    if args.output:
        with open(args.output, "w", encoding="utf-8",
                  newline="") as out:
            write_exposition(out, snaps)
    else:
        write_exposition(sys.stdout, snaps)


if __name__ == "__main__":
    main()
