#!/usr/bin/env bash
# Paired runs of the xbcd benchmark: a base commit against the working tree.
#
#   bash scripts/benchpair.sh BASE WORKLOAD PAIRS [xbcbench flags...]
#   bash scripts/benchpair.sh HEAD~1 cold 10 --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. It extracts BASE's committed files with
# git archive into .bench_build/benchpair/ (offline: BASE must be in the
# local repository), then runs the unmodified `bash xbcbench/run.sh --workload
# WORKLOAD [flags]` in the base worktree and in the working tree in
# alternation, switching which side goes first on every pair. Each run's
# output is kept under .bench_build/benchpair/<workload>-<time>/. At the end
# it prints, for every metric, each side's median and quartiles, the ratio
# of the medians, the median and quartiles of the per-pair ratios (change
# over base, within each pair), and how many pairs the working tree won
# (ties count for neither side). The verdict column reads "gain" when at least 10 pairs
# ran, the working tree won at least 9 in 10 of them and the medians differ
# by more than the base's interquartile spread, and "worse" when an
# end-to-end metric's median is worse than the base's by more than its
# bound in BENCHMARK.json. It reads "wide" when the working tree's
# interquartile spread of an end-to-end metric is larger than that bound
# taken as a share of the base's median: such runs spread too widely to
# tell whether the metric got worse. The base tree is removed on exit.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: bash scripts/benchpair.sh BASE WORKLOAD PAIRS [xbcbench flags...]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=$3
shift 3
case $pairs in '' | *[!0-9]* | 0)
	echo "benchpair: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_ref^{commit}")
out="$root/.bench_build/benchpair/$workload-$(date +%Y%m%d-%H%M%S)"
tree="$root/.bench_build/benchpair/base-$base_sha"
mkdir -p "$out"

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$base_sha" | tar -x -C "$tree"

# run SIDE DIR PAIR [flags...]: one benchmark run; the last line of its
# output is the JSON report.
run() {
	local side=$1 dir=$2 pair=$3
	shift 3
	echo "benchpair: pair $pair/$pairs: $side" >&2
	(cd "$dir" && bash xbcbench/run.sh --workload "$workload" "$@") >"$out/$side-$pair.out" 2>"$out/$side-$pair.err" || {
		echo "benchpair: the $side run of pair $pair failed; see $out/$side-$pair.err" >&2
		exit 1
	}
	tail -n 1 "$out/$side-$pair.out" >"$out/$side-$pair.json"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tree" "$i" "$@"
		run change "$root" "$i" "$@"
	else
		run change "$root" "$i" "$@"
		run base "$tree" "$i" "$@"
	fi
done

# One "side pair metric value" line per reported metric, plus the
# attempted and failed counts of every run.
for f in "$out"/*.json; do
	name=$(basename "$f" .json)
	side=${name%-*} pair=${name##*-}
	grep -o '"[^"]*":{"value":[^,}]*' "$f" | sed 's/^"\([^"]*\)":{"value":/\1 /' |
		while read -r metric value; do echo "$side $pair $metric $value"; done
	for k in attempted failed; do
		echo "$side $pair run.$k $(grep -o "\"$k\":[0-9]*" "$f" | cut -d: -f2)"
	done
done >"$out/values.txt"

echo "benchpair: $workload, $pairs pairs, base $base_sha vs the working tree; flags: $*"
echo "benchpair: runs and values in $out"
awk -v pairs="$pairs" '
	# BENCHMARK.json: each metric'"'"'s better direction and, for the
	# end-to-end metrics, its bound.
	FNR == NR {
		if ($0 ~ /"name":/) { split($0, a, "\""); name = a[4] }
		if ($0 ~ /"better":/) { split($0, a, "\""); better[name] = a[4] }
		if ($0 ~ /"bound":/) { v = $0; sub(/.*"bound": */, "", v); bound[name] = v + 0 }
		next
	}
	{
		key = $3
		if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
		val[$1, key, $2] = $4
		n[$1, key]++
		list[$1, key] = list[$1, key] " " $4
	}
	function quant(s, q,   v, m, i, j, t, h, lo) {
		m = split(s, v, " ")
		for (i = 2; i <= m; i++) {
			t = v[i] + 0
			for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j + 1] = v[j]
			v[j + 1] = t
		}
		h = (m - 1) * q + 1
		lo = int(h)
		if (lo >= m) return v[m] + 0
		return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	END {
		printf "%-26s %12s %12s %12s   %12s %12s %12s %7s   %7s %7s %7s %5s  %s\n", "metric", "base p50", "q1", "q3", "change p50", "q1", "q3", "ratio", "pair p50", "q1", "q3", "won", "verdict"
		for (k = 1; k <= nk; k++) {
			key = order[k]
			if (n["base", key] == 0 || n["change", key] == 0) continue
			bm = quant(list["base", key], 0.5); b1 = quant(list["base", key], 0.25); b3 = quant(list["base", key], 0.75)
			cm = quant(list["change", key], 0.5); c1 = quant(list["change", key], 0.25); c3 = quant(list["change", key], 0.75)
			dir = (key in better) ? better[key] : (key == "run.failed" ? "lower" : "")
			won = 0; ratios = ""
			for (p = 1; p <= pairs; p++) {
				b = val["base", key, p] + 0; c = val["change", key, p] + 0
				if ((dir == "lower" && c < b) || (dir == "higher" && c > b)) won++
				if (b != 0) ratios = ratios " " c / b
			}
			pr = (ratios != "") ? sprintf("%7.3f %7.3f %7.3f", quant(ratios, 0.5), quant(ratios, 0.25), quant(ratios, 0.75)) : sprintf("%7s %7s %7s", "-", "-", "-")
			verdict = "-"
			gain = (dir == "lower") ? bm - cm : cm - bm
			if (dir != "" && pairs >= 10 && won * 10 >= pairs * 9 && gain > b3 - b1) verdict = "gain"
			if ((key in bound) && bm != 0 && -gain / bm > bound[key]) verdict = "worse"
			if ((key in bound) && c3 - c1 > bound[key] * bm) verdict = (verdict == "-") ? "wide" : verdict "+wide"
			ratio = (bm != 0) ? sprintf("%.3f", cm / bm) : "-"
			wonS = (dir != "") ? won "/" pairs : "-"
			printf "%-26s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g %7s   %s %5s  %s\n", key, bm, b1, b3, cm, c1, c3, ratio, pr, wonS, verdict
		}
	}
' BENCHMARK.json "$out/values.txt"
