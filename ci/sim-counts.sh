#!/bin/sh
# Simulation-count gate: the work the simulator does per cold-batch
# build — syscalls, filter-faked calls, spawned processes and BPF
# instructions per syscall — must stay exactly what it is, so that no
# performance change can get faster by simulating less. The counts are
# deterministic for a seed; the script only reads perfbench's traced
# metric lines. Run from the repository root:
#
#   sh ci/sim-counts.sh
set -eu

OUT=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload cold-batch --seed 1 --seconds 1 --trace 1)

fail=0
check() {
    got=$(printf '%s\n' "$OUT" | awk -v name="$1" '$1 == name { print $2 }')
    if [ "$got" = "$2" ]; then
        echo "ok   $1 = $got"
    else
        echo "FAIL $1 = ${got:-missing}, want $2" >&2
        fail=1
    fi
}

check kernel.syscalls_per_build 2938.0000
check kernel.faked_per_build 615.7500
check kernel.spawns_per_build 15.0000
check kernel.bpf_insns_per_syscall 14.5513
exit "$fail"
