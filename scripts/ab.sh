#!/usr/bin/env bash
# ab.sh — compare two revisions on one benchmark workload with interleaved
# runs, and print the numbers a performance claim needs: per metric, each
# side's median and interquartile range, and how many pairs the change won.
#
# Usage (from anywhere inside the repository):
#
#   scripts/ab.sh <parent-rev> <change-rev> --workload W [--pairs N]
#                 [--seed S] [--seconds T] [--trace 0|1] [--tiny]
#
#   scripts/ab.sh HEAD~1 HEAD --workload analyze --pairs 10 --seed 1
#   scripts/ab.sh --tiny --pairs 1 HEAD HEAD          # smoke run
#
# Each revision's committed files are exported (git archive) into its own
# temporary directory and built there by dsebench/run.sh, so uncommitted
# edits never leak into either side and nothing is registered in the
# repository. Pair i runs the parent first when i is odd and the change
# first when i is even, so slow drift on the host cannot favour one side.
# Every run uses the same seed. Defaults: analyze, 10 pairs, seed 1, 12 s
# windows (0 s with --tiny), untraced. Metric directions come from
# BENCHMARK.json; a pair counts as a win when the change is strictly better.
# Metrics that read 0 on every run (layers the workload does not run) are
# left out of the table.
# The dataset_sha256 each run logs is compared across all runs. Exits
# non-zero if any run fails its correctness check or the digests differ.
set -euo pipefail

workload=analyze pairs=10 seed=1 seconds="" trace=0 tiny=""
revs=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--pairs) pairs="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--trace) trace="$2"; shift 2 ;;
	--tiny) tiny=--tiny; shift ;;
	-h | --help) sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
	-*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
	*) revs+=("$1"); shift ;;
	esac
done
if [[ ${#revs[@]} -ne 2 ]]; then
	echo "usage: scripts/ab.sh <parent-rev> <change-rev> --workload W [--pairs N] [--seed S] [--seconds T] [--trace 0|1] [--tiny]" >&2
	exit 2
fi
if [[ -z "$seconds" ]]; then
	seconds=12
	[[ -n "$tiny" ]] && seconds=0
fi

root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Builds go under each checkout's own .bench_build, never a shared one.
unset CARGO_TARGET_DIR

sides=(parent change)
for k in 0 1; do
	commit="$(git -C "$root" rev-parse --verify "${revs[$k]}^{commit}")"
	dir="$tmp/${sides[$k]}"
	mkdir -p "$dir"
	git -C "$root" archive "$commit" | tar -x -C "$dir"
	echo "== ${sides[$k]}: ${revs[$k]} ($commit)" >&2
	# run.sh builds before it runs; -h then exits without running anything.
	(cd "$dir" && bash dsebench/run.sh -h >/dev/null 2>&1) || true
	if [[ ! -x "$dir/.bench_build/dsebench" ]]; then
		echo "ab.sh: building dsebench at ${revs[$k]} failed" >&2
		(cd "$dir" && bash dsebench/run.sh -h) || true
		exit 1
	fi
done

status=0
for ((i = 1; i <= pairs; i++)); do
	order=(parent change)
	((i % 2 == 0)) && order=(change parent)
	for side in "${order[@]}"; do
		echo "== pair $i/$pairs: $side" >&2
		if ! (cd "$tmp/$side" && bash dsebench/run.sh --workload "$workload" --seed "$seed" \
			--seconds "$seconds" --trace "$trace" $tiny \
			>"$tmp/$side.$i.json" 2>"$tmp/$side.$i.log"); then
			echo "ab.sh: $side run $i failed:" >&2
			tail -n 5 "$tmp/$side.$i.log" >&2
			status=1
		fi
	done
done

python3 - "$tmp" "$pairs" "$root/BENCHMARK.json" "$workload" "$seed" "${revs[@]}" <<'EOF' || status=1
import json, re, sys

tmp, pairs, bench, workload, seed, prev, crev = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}
better.update({m["name"]: m["better"] for m in json.load(open(bench))["per_layer"]})

def load(side, i):
    try:
        with open(f"{tmp}/{side}.{i}.json") as f:
            res = json.loads(f.read())
    except (OSError, ValueError):
        return None, None
    log = open(f"{tmp}/{side}.{i}.log").read()
    m = re.search(r"dataset_sha256=(\S+)", log)
    return res, m.group(1) if m else None

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
ok = all(r is not None and r["correct"] for s in runs for r, _ in runs[s])
digests = {d for s in runs for _, d in runs[s]}
print(f"workload {workload}, seed {seed}, {pairs} pair(s): parent {prev}, change {crev}")
print(f"all runs correct: {ok}; dataset_sha256: "
      + ("identical on every run" if len(digests) == 1 and None not in digests else f"DIFFER {sorted(map(str, digests))}"))
complete = [i for i in range(pairs) if runs["parent"][i][0] and runs["change"][i][0]]
names = sorted(set.intersection(*[set(runs[s][i][0]["metrics"]) for s in runs for i in complete])) if complete else []
print(f"{'metric':34} {'unit':8} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'change':>8} {'wins':>6}")
for n in names:
    p = [runs["parent"][i][0]["metrics"][n]["value"] for i in complete]
    c = [runs["change"][i][0]["metrics"][n]["value"] for i in complete]
    if not any(p + c):
        continue  # a layer this workload does not run
    unit = runs["parent"][complete[0]][0]["metrics"][n]["unit"]
    sign = 1 if better.get(n, "lower") == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    rel = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    num = lambda v: f"{v:.0f}" if v == int(v) and abs(v) < 1e15 else f"{v:.6g}"
    fmt = lambda xs, m: f"{num(m)} [{num(quantile(xs, .25))}, {num(quantile(xs, .75))}]"
    print(f"{n:34} {unit:8} {fmt(p, pm):>34} {fmt(c, cm):>34} {rel:>8} {wins:>3}/{len(complete)}")
sys.exit(0 if ok and len(digests) == 1 and None not in digests and len(complete) == pairs else 1)
EOF
exit $status
