#!/bin/sh
# A figure binary rerun into the same --metrics-out over different
# workloads must leave only the second run's series in the file,
# even though the first run's shards are still on disk.
#
#   figure_metrics_rerun.sh FIG13_BINARY SCRATCH_DIR
set -eu
fig=$1
dir=$2
prom="$dir/metrics.prom"
rm -rf "$dir"
mkdir -p "$dir"
export PROFESS_INSTR=20000 PROFESS_WARMUP=10000

PROFESS_WORKLOADS=w01 "$fig" --jobs 2 --metrics-out "$prom" >/dev/null
grep -q 'run="w01_profess"' "$prom"

PROFESS_WORKLOADS=w09 "$fig" --jobs 2 --metrics-out "$prom" >/dev/null
grep -q 'run="w09_profess"' "$prom"
if grep -q 'run="w01_' "$prom"; then
    echo "stale w01 series in $prom" >&2
    exit 1
fi
