#!/usr/bin/env bash
# Ten runs per workload, each with another seed; prints for every
# end-to-end metric the distance between the first and third quartile of
# its ten values as a share of their median (Python's
# statistics.quantiles(n=4)) beside its bound from BENCHMARK.json, and
# fails when a spread exceeds a third of its bound (setup_s is printed
# but, as in the contract, not held to it).
#
#   bash perfbench/spread.sh [first-seed] [workload ...]
#
# Run from the root of the checkout. Results are kept under
# .bench_build/out/spread/.
set -euo pipefail

first=${1:-1}
shift || true
out=.bench_build/out/spread
mkdir -p "$out"
if [ $# -eq 0 ]; then
	set -- $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for w in "$@"; do
	: >"$out/$w.jsonl"
	for i in 0 1 2 3 4 5 6 7 8 9; do
		seed=$((first + i))
		echo "spread: $w seed $seed" >&2
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.jsonl"
	done
done

python3 - "$out" "$@" <<'PY'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = False
for w in workloads:
    runs = [json.loads(l) for l in open(f"{out}/{w}.jsonl")]
    wrong = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"{w}: {len(runs)} runs, {len(wrong)} incorrect")
    bad |= bool(wrong) or len(runs) < 10
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        flag = ""
        if name != "setup_s" and spread > bound / 3:
            flag, bad = "  <-- over a third of the bound", True
        print(f"  {name:14s} median {q2:12.6g}  spread {spread:6.3f}  bound {bound:.2f}{flag}")
sys.exit(1 if bad else 0)
PY
