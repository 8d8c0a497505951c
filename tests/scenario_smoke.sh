#!/bin/sh
# A figure binary run on an intervention schedule: its RSM and MDM
# pins and quiesce audits must reach the runs and be counted in the
# --metrics-out exposition.
#
#   scenario_smoke.sh FIG13_BINARY SCRATCH_DIR
set -eu
fig=$1
dir=$2
prom="$dir/metrics.prom"
rm -rf "$dir"
mkdir -p "$dir"
export PROFESS_INSTR=20000 PROFESS_WARMUP=10000 PROFESS_WORKLOADS=w01

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

"$fig" --jobs 2 --scenario "$dir/schedule.scn" --metrics-out "$prom" \
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
