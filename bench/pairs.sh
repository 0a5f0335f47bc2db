#!/usr/bin/env bash
# Compares two commits with the benchmark: runs alternating parent/change
# pairs (the side that goes first alternates) in two git worktrees, then
# prints, per workload and end-to-end metric, each side's median and
# quartiles, how many pairs the change won (ties count for neither), and
# whether the medians differ by more than the parent's interquartile
# range. Both sides run the benchmark code of the change, so only the
# code under test differs.
#
# Usage, from the repository root:
#
#   bash bench/pairs.sh PARENT [CHANGE [PAIRS [WORKLOADS]]]
#
# CHANGE defaults to HEAD, PAIRS to 10, WORKLOADS to every workload in
# BENCHMARK.json (space-separated). Pair i uses seed 100+i on both sides.
set -euo pipefail
parent=${1:?usage: bench/pairs.sh PARENT [CHANGE [PAIRS [WORKLOADS]]]}
change=${2:-HEAD}
pairs=${3:-10}
root=$(pwd)
work="$root/.bench_build/pairs"
workloads=${4:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}

mkdir -p "$work"
cleanup() {
	for side in parent change; do
		git -C "$root" worktree remove --force "$work/$side" >/dev/null 2>&1 || true
	done
}
trap cleanup EXIT
for side in parent change; do
	rev=$parent
	[ "$side" = change ] && rev=$change
	git -C "$root" worktree remove --force "$work/$side" >/dev/null 2>&1 || true
	git -C "$root" worktree add --detach "$work/$side" "$rev" >/dev/null
	# One benchmark for both sides: the change's.
	rm -rf "$work/$side/bench"
	git -C "$root" archive "$change" bench | tar -x -C "$work/$side"
done

results="$work/results.tsv"
: >"$results"
run() { # side workload seed
	local out
	out=$(cd "$work/$1" && bash bench/run.sh -workload "$2" -seed "$3" 2>/dev/null | tail -n 1) || true
	printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$out" >>"$results"
}
for i in $(seq 1 "$pairs"); do
	seed=$((100 + i))
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$w" "$seed"
			run change "$w" "$seed"
		else
			run change "$w" "$seed"
			run parent "$w" "$seed"
		fi
	done
	echo "pair $i/$pairs done" >&2
done

python3 - "$results" <<'PY'
import json, statistics, sys
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {}  # (workload, seed) -> side -> result
for line in open(sys.argv[1]):
    side, workload, seed, out = line.rstrip("\n").split("\t", 3)
    try:
        res = json.loads(out)
    except ValueError:
        res = {"correct": False, "metrics": {}}
    runs.setdefault((workload, seed), {})[side] = res
print("workload metric parent_median [q1 q3] change_median [q1 q3] change_wins/pairs beyond_parent_iqr")
for workload in sorted({w for w, _ in runs}):
    pairs = [v for (w, _), v in sorted(runs.items()) if w == workload and len(v) == 2]
    bad = sum(1 for p in pairs for r in p.values() if not r.get("correct"))
    if bad:
        print(f"{workload}: {bad} incorrect runs")
    for metric, direction in better.items():
        ps = [p["parent"]["metrics"].get(metric, {}).get("value") for p in pairs]
        cs = [p["change"]["metrics"].get(metric, {}).get("value") for p in pairs]
        both = [(a, b) for a, b in zip(ps, cs) if a is not None and b is not None]
        if len(both) < 2:
            continue
        ps, cs = [a for a, _ in both], [b for _, b in both]
        pq, cq = statistics.quantiles(ps, n=4), statistics.quantiles(cs, n=4)
        wins = sum(1 for a, b in both if (b < a if direction == "lower" else b > a))
        beyond = abs(statistics.median(cs) - statistics.median(ps)) > pq[2] - pq[0]
        print(f"{workload} {metric} {statistics.median(ps):.6g} [{pq[0]:.6g} {pq[2]:.6g}] "
              f"{statistics.median(cs):.6g} [{cq[0]:.6g} {cq[2]:.6g}] {wins}/{len(both)} {'yes' if beyond else 'no'}")
PY
