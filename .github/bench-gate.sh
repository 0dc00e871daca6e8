#!/bin/sh
# bench-gate.sh DIR [BASELINE] — the one benchmark gate (README "Performance").
# DIR holds bench/'s reports at seed 1 (nine passes): <workload>.trace1.txt
# for each of the five workloads, <workload>.trace0.txt for cloud-idle,
# cloud-wide, cloud-loaded and fleet-ops. They are folded into DIR/BENCH_GATE.json, the
# file a PR that legitimately moves a count commits as the new baseline,
# and that is compared with BASELINE
# (default: the committed BENCH_GATE.json). `correct`, `failed` and every
# metric a traced pass labels count-sourced ("c") must be equal; the bare
# passes' allocs_per_sim_s may rise by BENCHMARK.json's bound. Host-clock
# numbers are not gated: runtime.alloc_bytes_per_sim_s is the one "c" metric
# that does not repeat, and wall time is judged by same-machine paired runs.
set -eu
dir=$1 root=$(dirname "$0")/..
for f in "$dir"/*.trace[01].txt; do
	jq -R -s --arg pass "$(basename "$f" .txt)" '
		split("\n") | map(select(. != "")) | (last | fromjson) as $r
		| ([.[] | select(test("^[a-z].* c$")) | split(" ")[0]] - ["runtime.alloc_bytes_per_sim_s"]) as $gated
		| {($pass): ({correct: $r.correct, failed: $r.failed}
			+ ($r.metrics | with_entries(select(.key | IN($gated[], "allocs_per_sim_s"))) | map_values(.value)))}' "$f"
done | jq -s add >"$dir/BENCH_GATE.json"
jq -n -r --slurpfile want "${2:-$root/BENCH_GATE.json}" --slurpfile got "$dir/BENCH_GATE.json" --slurpfile bm "$root/BENCHMARK.json" '
	($bm[0].end_to_end[] | select(.name == "allocs_per_sim_s").bound) as $bound
	| ([$want[0], $got[0] | paths(type != "object")] | unique[]) as $p
	| ($want[0] | getpath($p)) as $w | ($got[0] | getpath($p)) as $g
	| select(if $p[1] == "allocs_per_sim_s" and $w != null and $g != null then $g > $w * (1 + $bound) else $g != $w end)
	| "\($p | join(" ")): baseline \($w), this run \($g)"' >"$dir/gate.diff"
if [ -s "$dir/gate.diff" ]; then
	echo "bench gate FAILED; a deliberate change re-issues the baseline (cp $dir/BENCH_GATE.json .) and says why:"
	cat "$dir/gate.diff"
	exit 1
fi
echo "bench gate passed: $(jq '[.[] | length] | add' "$dir/BENCH_GATE.json") values over $(jq length "$dir/BENCH_GATE.json") passes"
