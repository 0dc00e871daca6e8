#!/bin/sh
# bench-run.sh DIR — the nine bench/ passes .github/bench-gate.sh compares,
# all at seed 1: the traced pass of each of the five workloads (per-layer
# metrics, the count-sourced ones exact) and the bare pass of cloud-idle,
# cloud-wide, cloud-loaded and fleet-ops (allocs_per_sim_s; --seconds 3
# keeps it at its least repetition count; cloud-wide's is the sharded
# fabric's, packet pool levelling included, and each replica's first touch,
# where nearly all its allocations are; cloud-loaded's is the transport
# and ingress path's, chunked segments and repair bodies included). Each
# report is printed and kept as DIR/<workload>.trace<0|1>.txt; a pass that
# dies leaves a report without its JSON line, which the gate rejects. About
# 120 s on 2 vCPU.
set -eu
bench=$(dirname "$0")/../bench
mkdir -p "$1"
for w in cloud-idle cloud-wide cloud-loaded fleet-ops paper-figs; do
	go run -C "$bench" . --workload $w --seed 1 --trace 1 | tee "$1/$w.trace1.txt"
done
for w in cloud-idle cloud-wide cloud-loaded fleet-ops; do
	go run -C "$bench" . --workload $w --seed 1 --seconds 3 --trace 0 | tee "$1/$w.trace0.txt"
done
