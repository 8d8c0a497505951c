#!/bin/sh
# A figure spec run on an intervention schedule: its RSM and MDM pins
# and quiesce audits must reach the runs and be counted in the
# sweep's exposition.
#
#   scenario_smoke.sh PROFESS_SWEEP SPEC SCRATCH_DIR
set -eu
sweep=$1
spec=$2
dir=$3
prom="$dir/out/metrics.prom"
rm -rf "$dir"
mkdir -p "$dir"

cat >"$dir/schedule.scn" <<'SCN'
# program 0 reads as 4x slowed down from tick 20000 on
at=20000 kind=pin_rsm program=0 sf_a=4.0 sf_b=4.0
# no MDM swaps between ticks 40000 and 80000
at=40000 kind=pin_mdm decision=noswap
at=80000 kind=unpin_mdm
# cross-component audits at the next quiesce points
at=60000 kind=quiesce_audit
at=100000 kind=quiesce_audit
SCN

"$sweep" --spec "$spec" --out "$dir/out" --fresh --no-progress --jobs 2 \
    --scenario "$dir/schedule.scn" instr=20000 warmup=10000 workload=w01 \
    >/dev/null

# nonzero FAMILY: some run's FAMILY counter is above zero.
nonzero() {
    if ! awk -v f="$1_total{" 'index($1, f) == 1 && $2 > 0 { ok = 1 }
            END { exit !ok }' "$prom"; then
        echo "no run counted $1:" >&2
        grep '^profess_scenario' "$prom" >&2 || true
        exit 1
    fi
}
nonzero profess_scenario_rsm_pin
nonzero profess_scenario_quiesce_audit
