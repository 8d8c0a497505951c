#!/bin/sh
# A figure binary rerun into the same --metrics-out over different
# workloads must leave only the second run's series in the file,
# even though the first run's shards are still on disk.
#
#   figure_metrics_rerun.sh ABLATION_PROFESS SCRATCH_DIR
set -eu
fig=$1
dir=$2
prom="$dir/metrics.prom"
rm -rf "$dir"
mkdir -p "$dir"
tiny="instr=20000 warmup=10000"

"$fig" --jobs 2 --metrics-out "$prom" $tiny workload=w01 >/dev/null
grep -q 'run="w01_profess"' "$prom"

"$fig" --jobs 2 --metrics-out "$prom" $tiny workload=w09 >/dev/null
grep -q 'run="w09_profess"' "$prom"
if grep -q 'run="w01_' "$prom"; then
    echo "stale w01 series in $prom" >&2
    exit 1
fi
