#!/bin/sh
# Compares the repo benchmark (benchmark/run.sh, BENCHMARK.json) of two
# revisions with the alternating-pair protocol:
#
#   scripts/bench-compare.sh BASE [CHANGE]      (make bench-compare BASE=<rev>)
#
# Environment: WORKLOADS (default: all five), PAIRS (5), SEED (1) and
# RUN_SECONDS (BENCHMARK.json's run_seconds). CHANGE defaults to HEAD.
#
# Each revision's committed files are exported with git archive into
# .build/bench-compare/<sha>, and its own benchmark/run.sh builds and runs it
# there. Per workload, pair i runs BASE first when i is odd and CHANGE first
# when it is even. The script prints every run's seven end-to-end metrics,
# failed/attempted and result_digest, then per metric both medians and in
# how many pairs CHANGE was better. Full run logs stay in
# .build/bench-compare/logs.
set -eu

base=${1:?usage: scripts/bench-compare.sh BASE [CHANGE]}
change=${2:-HEAD}
root=$(git rev-parse --show-toplevel)
workloads=${WORKLOADS:-dash_warm adhoc_cold exact_scan disk_cold ingest_mix}
pairs=${PAIRS:-5}
seed=${SEED:-1}
secs=${RUN_SECONDS:-$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$root/BENCHMARK.json")}
out=$root/.build/bench-compare
mkdir -p "$out/logs"

# checkout prints the directory holding rev's committed files, exporting
# them on first use.
checkout() {
	sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
	if [ ! -d "$out/$sha" ]; then
		rm -rf "$out/$sha.tmp"
		mkdir -p "$out/$sha.tmp"
		git -C "$root" archive "$sha" | tar -x -C "$out/$sha.tmp"
		mv "$out/$sha.tmp" "$out/$sha"
	fi
	echo "$out/$sha"
}
basedir=$(checkout "$base")
changedir=$(checkout "$change")
echo "base   $base ($(basename "$basedir"))"
echo "change $change ($(basename "$changedir"))"
echo "seed $seed, $secs s per run, $pairs pairs per workload, GOMAXPROCS=${GOMAXPROCS:-default}"

# run executes one benchmark run and appends its parsed line to runs:
# workload side pair, the seven metrics, failed/attempted, digest.
runs=$out/runs.$$
: >"$runs"
run() {
	side=$1 dir=$2 wl=$3 pair=$4
	log=$out/logs/$wl.$side.$pair.txt
	sh "$dir/benchmark/run.sh" --workload "$wl" --seed "$seed" --seconds "$secs" --trace 0 >"$log" 2>&1 ||
		echo "  ($side run $pair exited non-zero, see $log)" >&2
	awk -v wl="$wl" -v side="$side" -v pair="$pair" '
		{ m[$1] = $2 }
		match($0, /result_digest [0-9a-f]+/) { digest = substr($0, RSTART + 14, RLENGTH - 14) }
		match($0, /"attempted":[0-9]+/) { att = substr($0, RSTART + 12, RLENGTH - 12) }
		match($0, /"failed":[0-9]+/) { fail = substr($0, RSTART + 9, RLENGTH - 9) }
		END {
			n = split("queries_per_s latency_geomean_ms latency_p95_ms setup_s live_heap_mb rel_err_median ci_coverage", names, " ")
			line = wl " " side " " pair
			for (i = 1; i <= n; i++) line = line " " (names[i] in m ? m[names[i]] : "NaN")
			print line, (fail == "" ? "?" : fail) "/" (att == "" ? "?" : att), (digest == "" ? "none" : digest)
		}' "$log" >>"$runs"
}

for wl in $workloads; do
	echo "== $wl" >&2
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$basedir" "$wl" "$i"
			run change "$changedir" "$wl" "$i"
		else
			run change "$changedir" "$wl" "$i"
			run base "$basedir" "$wl" "$i"
		fi
		i=$((i + 1))
	done
done

awk '
function median(list, n,    v, i, j, t) {
	n = split(list, v, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
BEGIN {
	n = split("queries_per_s latency_geomean_ms latency_p95_ms setup_s live_heap_mb rel_err_median ci_coverage", names, " ")
	split("q/s geomean_ms p95_ms setup_s heap_mb rel_err coverage", short, " ")
	split("1 0 0 0 0 0 1", higher, " ")
}
{
	wl = $1
	if (!(wl in seen)) { seen[wl] = 1; order[++nw] = wl }
	rows[wl] = rows[wl] sprintf("%-6s %4d", $2, $3)
	for (k = 1; k <= n; k++) {
		rows[wl] = rows[wl] sprintf(" %10s", $(k + 3))
		vals[wl, $2, k] = vals[wl, $2, k] " " $(k + 3)
		v[wl, $2, $3, k] = $(k + 3)
	}
	rows[wl] = rows[wl] sprintf(" %9s %s\n", $(n + 4), $(n + 5))
	digests[wl, $2] = digests[wl, $2] " " $(n + 5)
	if ($3 > np[wl]) np[wl] = $3
}
END {
	for (w = 1; w <= nw; w++) {
		wl = order[w]
		printf "\n%s\n%-6s %4s", wl, "side", "pair"
		for (k = 1; k <= n; k++) printf " %10s", short[k]
		printf " %9s %s\n%s", "fail/att", "result_digest", rows[wl]
		printf "%-24s %12s %12s %8s\n", "metric", "base med", "change med", "better"
		for (k = 1; k <= n; k++) {
			better = 0
			for (p = 1; p <= np[wl]; p++) {
				b = v[wl, "base", p, k]; c = v[wl, "change", p, k]
				if ((higher[k] && c + 0 > b + 0) || (!higher[k] && c + 0 < b + 0)) better++
			}
			printf "%-24s %12.6g %12.6g %5d/%d\n", names[k], median(vals[wl, "base", k]), median(vals[wl, "change", k]), better, np[wl]
		}
		split(digests[wl, "base"] digests[wl, "change"], d, " ")
		same = "identical in every run"
		for (i in d) if (d[i] != d[1]) same = "DIFFERS between runs"
		print "result_digest " same
	}
}' "$runs"
rm -f "$runs"
