#!/bin/sh
# The quick kernel_hotpath matrix must do exactly the work that
# bench/baselines/kernel_quick.json records: per run, the accesses,
# swaps, events, channel scheduler entries, most events pending at
# once, and the Request and PendingAccess pools' high-water marks.
#
#   kernel_counts.sh KERNEL_HOTPATH PYTHON3 REPO_ROOT SCRATCH_DIR
set -eu
kernel=$1
python=$2
root=$3
dir=$4
mkdir -p "$dir"
"$kernel" --quick --out "$dir/kernel_quick.json" 2>/dev/null
"$python" "$root/scripts/bench_report.py" counts \
    "$root/bench/baselines/kernel_quick.json" "$dir/kernel_quick.json"
