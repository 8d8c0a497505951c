#!/bin/sh
# The resumable-sweep differential on bench/sweeps/nightly.sweep.  A
# sweep interrupted by --max-runs 3 (exit 75) and then resumed must
# skip its three journaled runs and finish with a journal and an
# exposition byte-identical to an uninterrupted sweep's.  Each run's
# journaled results and the exposition's checksum are pinned; after
# an intentional change to the simulation or its statistics, update
# both from the new output.
#
#   sweep_resume.sh PROFESS_SWEEP REPO_ROOT SCRATCH_DIR
set -eu
sweep=$1
root=$2
dir=$3
spec="$root/bench/sweeps/nightly.sweep"
rm -rf "$dir"
mkdir -p "$dir"

"$sweep" --spec "$spec" --out "$dir/a" --jobs 2 --fresh --no-progress \
    >/dev/null

rc=0
"$sweep" --spec "$spec" --out "$dir/b" --jobs 2 --max-runs 3 --fresh \
    --no-progress >/dev/null || rc=$?
if [ "$rc" -ne 75 ]; then
    echo "interrupted sweep exited $rc, expected 75" >&2
    exit 1
fi
"$sweep" --spec "$spec" --out "$dir/b" --jobs 2 --no-progress \
    >"$dir/resume.out"
if ! grep -q '(3 resumed, 5 executed here)' "$dir/resume.out"; then
    echo "the resumed sweep did not skip exactly its 3 journaled runs:" >&2
    cat "$dir/resume.out" >&2
    exit 1
fi
cmp "$dir/a/sweep.journal" "$dir/b/sweep.journal"
cmp "$dir/a/metrics.prom" "$dir/b/metrics.prom"

sed -n 's/^i=.* label=\([^ ]*\) policy=\([^ ]*\) .* \(ws=.*\)$/\1 \2 \3/p' \
    "$dir/a/sweep.journal" >"$dir/results.txt"
cat >"$dir/results.want" <<'EOF'
w01_s1 pom ws=1.0841322517083896 maxsd=6.8508513787229406 eff=5775478.1330856532 served=23365 swaps=1466
w01_s1 profess ws=1.2460499468896873 maxsd=5.5788270809616582 eff=6588664.7527862974 served=22908 swaps=1013
w03_s1 pom ws=1.1136376973345539 maxsd=5.2372462132445925 eff=5729575.8669105265 served=13444 swaps=848
w03_s1 profess ws=1.2537513563362845 maxsd=4.6693564687776465 eff=15081499.742961258 served=13275 swaps=63
w01_s2 pom ws=1.0387070491610788 maxsd=6.4488786945104168 eff=7804701.0602035066 served=23834 swaps=1038
w01_s2 profess ws=1.2985516769871492 maxsd=4.3049148267562449 eff=19478754.005311035 served=23535 swaps=22
w03_s2 pom ws=1.2360492112235029 maxsd=5.0666834503419969 eff=7161414.6741399486 served=13242 swaps=636
w03_s2 profess ws=1.2892183608355501 maxsd=4.4610382807427706 eff=17612392.175820753 served=12897 swaps=3
EOF
diff "$dir/results.want" "$dir/results.txt"

# POSIX cksum: CRC-32 and byte count of the exposition.
set -- $(cksum <"$dir/a/metrics.prom")
if [ "$1 $2" != "1189419415 4146451" ]; then
    echo "metrics.prom checksum is '$1 $2', pinned '1189419415 4146451'" >&2
    exit 1
fi
