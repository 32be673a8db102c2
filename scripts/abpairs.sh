#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark, in one command.
#
#   scripts/abpairs.sh <parent-rev> <workload|all> <pairs> <first-seed> [benchmark flags]
#   scripts/abpairs.sh HEAD~1 train-mem 10 61
#   scripts/abpairs.sh main all 2 1 -scale smoke -seconds 2
#
# The parent is <parent-rev> exported with `git archive`; the change is the
# working tree as it is now (tracked and untracked files, ignored ones left
# out). Both are laid out as sibling directories of one fresh temp directory
# (under $TMPDIR, else /tmp), so the two sides build, and write their disk
# arenas, the same way. Pair i runs seed first-seed+i on both sides, the parent
# first on even pairs and the change first on odd ones, each run in its own
# process appending its record with -out. The flags after the first four go to
# every run (default: -seconds 10 -trace 0).
#
# It then prints, per workload and end-to-end metric, every pair's values as
# parent/change and how many pairs the change wins, and ends with
# `bash benchmark/run.sh compare parent.jsonl change.jsonl`, whose exit status
# is the script's. The two set files stay in the temp directory it names.
set -euo pipefail

if [ $# -lt 4 ]; then
	sed -n '2,/^set /{/^set /d;s/^# \{0,1\}//;p}' "$0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=$4
shift 4
flags=("$@")
[ ${#flags[@]} -gt 0 ] || flags=(-seconds 10 -trace 0)

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/abpairs.XXXXXX")
trap 'rm -rf "$work/parent" "$work/change"' EXIT
mkdir "$work/parent" "$work/change"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$root" &&
	comm -z -23 <(git ls-files -z -co --exclude-standard | sort -z) <(git ls-files -z -d | sort -z) |
	tar --null -T - -cf -) | tar -x -C "$work/change"
echo "abpairs: parent ${rev:0:12} vs the working tree, $workload, $pairs pairs from seed $seed, in $work" >&2

run() { # <side> <seed>
	echo "abpairs: seed $2 $1" >&2
	bash "$work/$1/benchmark/run.sh" -workload "$workload" -seed "$2" "${flags[@]}" -out "$work/$1.jsonl" >>"$work/$1.log"
}
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then
		run parent "$s"
		run change "$s"
	else
		run change "$s"
		run parent "$s"
	fi
done

python3 - "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl" <<'EOF'
import json, sys

defs = json.load(open(sys.argv[1]))["end_to_end"]

def load(path):
    recs = {}
    for line in open(path):
        if line.strip():
            r = json.loads(line)
            if r.get("metrics"):
                recs[(r["workload"], r["seed"])] = r
    return recs

parent, change = load(sys.argv[2]), load(sys.argv[3])
for w in sorted({w for w, _ in parent}):
    seeds = sorted(s for v, s in parent if v == w and (v, s) in change)
    if not seeds:
        continue
    print(f"{w}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, parent/change")
    for side, recs in (("parent", parent), ("change", change)):
        for s in seeds:
            r = recs[(w, s)]
            if not r["correct"] or r["failed"]:
                print(f"  FAILED RUN {side} seed {s}: correct={r['correct']} failed={r['failed']}")
    for d in defs:
        name, wins, ties, vals = d["name"], 0, 0, []
        for s in seeds:
            a = parent[(w, s)]["metrics"][name]["value"]
            b = change[(w, s)]["metrics"][name]["value"]
            vals.append(f"{a:.6g}/{b:.6g}")
            if a == b:
                ties += 1
            elif (b > a) == (d["better"] == "higher"):
                wins += 1
        tie = f", {ties} equal" if ties else ""
        print(f"  {name:<19} change wins {wins}/{len(seeds)}{tie}: {' '.join(vals)}")
EOF

bash "$work/change/benchmark/run.sh" compare "$work/parent.jsonl" "$work/change.jsonl"
