#!/usr/bin/env bash
# Paired comparison of two checkouts with the benchmark as it stands in
# each: ten pairs per workload, alternating which side runs first, each
# pair on its own seed. Prints, per workload and end-to-end metric, each
# side's median and quartiles, how many pairs the change won, and the
# verdict by the rule of section 8 of the choosing-metrics guide:
#
#   gain       the change wins at least 9 of 10 pairs (ties count for
#              neither) and the medians differ by more than the distance
#              between the parent's own quartiles
#   regressed  the change's median is worse than the parent's by more
#              than the metric's bound in BENCHMARK.json
#   unresolved the parent's own spread is wider than the bound, so "no
#              worse" cannot be told from noise
#   same       none of the above
#
#   bash perfbench/ab.sh <parent-checkout> <change-checkout> [first-seed] [workload ...]
#
# A change that claims a gain may not edit perfbench/ or BENCHMARK.json;
# this script refuses when the two sides' benchmark files differ.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: bash perfbench/ab.sh <parent-checkout> <change-checkout> [first-seed] [workload ...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
first=${3:-101}
shift 2
shift || true

if ! diff -r -q "$parent/perfbench" "$change/perfbench" >&2 || ! diff -q "$parent/BENCHMARK.json" "$change/BENCHMARK.json" >&2; then
	echo "ab: the two checkouts do not carry the same benchmark" >&2
	exit 2
fi
if [ $# -eq 0 ]; then
	set -- $(python3 -c 'import json,sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$parent/BENCHMARK.json")
fi
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$parent/BENCHMARK.json")
out="$change/.bench_build/out/ab"
mkdir -p "$out"

one() { # side dir workload seed
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1) >>"$out/$3.$1.jsonl"
}

for w in "$@"; do
	: >"$out/$w.parent.jsonl"
	: >"$out/$w.change.jsonl"
	for i in 0 1 2 3 4 5 6 7 8 9; do
		seed=$((first + i))
		echo "ab: $w pair $((i + 1)) seed $seed" >&2
		if [ $((i % 2)) -eq 0 ]; then
			one parent "$parent" "$w" "$seed"
			one change "$change" "$w" "$seed"
		else
			one change "$change" "$w" "$seed"
			one parent "$parent" "$w" "$seed"
		fi
	done
done

python3 - "$out" "$parent/BENCHMARK.json" "$@" <<'PY'
import json, statistics, sys
out, spec, workloads = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3:]
for w in workloads:
    sides = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in ("parent", "change")}
    for s, runs in sides.items():
        wrong = sum(1 for r in runs if not r["correct"] or r["failed"])
        print(f"{w} {s}: {len(runs)} runs, {wrong} incorrect")
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        wins = sum(1 for a, b in zip(c, p) if better(a, b))
        losses = sum(1 for a, b in zip(c, p) if better(b, a))
        iqr = pq[2] - pq[0]
        worse_by = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
        if wins >= 0.9 * len(p) and abs(cq[1] - pq[1]) > iqr and better(cq[1], pq[1]):
            verdict = "gain"
        elif worse_by > bound:
            verdict = "regressed"
        elif iqr / pq[1] > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"  {name:14s} parent {pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
              f"  wins {wins}/{len(p)} losses {losses}  {worse_by:+.3f} of parent, bound {bound:.2f}  {verdict}")
PY
