#!/usr/bin/env bash
# A/B-compares the benchmark (perfbench, BENCHMARK.json) between a parent
# commit and the working tree. Run it from the repository root:
#
#   bash perf/ab.sh <parent-ref> <workload> <first-seed> <pairs>
#
# It builds perfbench once from <parent-ref> (exported with git archive
# into a temporary directory) and once from the working tree, then runs
# <pairs> alternating pairs at --seconds 25: pair k runs both builds at
# seed <first-seed>+k-1, the parent first in odd pairs and the change
# first in even ones. Per end-to-end metric it prints the parent's and
# the change's medians, the parent's interquartile range, the ratio of
# the medians, the per-pair change/parent ratios and the number of pairs
# the change won, as a markdown table. The raw result lines are kept in
# a temporary directory, whose path is printed on stderr.
#
# Run one comparison at a time with nothing else busy: single runs on a
# shared host swing 10-40%, which is why the table reports spreads.
set -euo pipefail

if [[ $# -ne 4 ]]; then
	echo "usage: bash perf/ab.sh <parent-ref> <workload> <first-seed> <pairs>" >&2
	exit 2
fi
parent=$1 workload=$2 first=$3 pairs=$4
if ! [[ $first =~ ^[0-9]+$ && $pairs =~ ^[0-9]+$ ]] || ((pairs < 1)); then
	echo "perf/ab.sh: <first-seed> and <pairs> want non-negative integers, pairs >= 1" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$parent^{commit}" >/dev/null || {
	echo "perf/ab.sh: unknown commit $parent" >&2
	exit 2
}
seconds=25
tmp=$(mktemp -d)
echo "perf/ab.sh: raw results in $tmp" >&2
trap 'rm -rf "$tmp/go" "$tmp/parent-src" "$tmp/parent.bin" "$tmp/change.bin"' EXIT

# build <source dir> <binary>: the build environment of perfbench/run.sh,
# with caches under the temporary directory.
build() {
	mkdir -p "$tmp/go/tmp" "$tmp/go/config"
	GOCACHE="$tmp/go/cache" GOPATH="$tmp/go/path" GOTMPDIR="$tmp/go/tmp" \
		XDG_CONFIG_HOME="$tmp/go/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go -C "$1/perfbench" build -o "$2" .
}
mkdir -p "$tmp/parent-src"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent-src"
build "$tmp/parent-src" "$tmp/parent.bin"
build "$root" "$tmp/change.bin"

# run <side> <seed>: one timed run; its last output line is the result.
run() {
	local line
	# A run that fails its checks exits non-zero but still prints its
	# result line, which the table counts.
	line=$("$tmp/$1.bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1) || true
	if [[ $line != "{"* ]]; then
		echo "perf/ab.sh: $1 run at seed $2 printed no result" >&2
		exit 1
	fi
	echo "$line" >>"$tmp/$1.jsonl"
	echo "$1 seed $2: $line" >&2
}
for ((k = 0; k < pairs; k++)); do
	seed=$((first + k))
	if ((k % 2 == 0)); then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
done

# The table: one row per end-to-end metric BENCHMARK.json declares.
# Quartiles interpolate linearly between order statistics.
jq -n -r --slurpfile p "$tmp/parent.jsonl" --slurpfile c "$tmp/change.jsonl" \
	--slurpfile bench "$root/BENCHMARK.json" --arg workload "$workload" '
	def q($p): sort as $s | ($s | length - 1) * $p | floor as $i
		| if $i + 1 < ($s | length) then $s[$i] + (($s | length - 1) * $p - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
	def fmt: if . == null then "n/a" elif fabs >= 1000 then (. * 1 | round | tostring)
		elif fabs >= 1 then ((. * 1000 | round) / 1000 | tostring)
		else ((. * 1000000 | round) / 1000000 | tostring) end;
	def r2: if . == null then "n/a" else (. * 100 | round) / 100 | tostring end;
	def div($a; $b): if $b == 0 then null else $a / $b end;
	"\($workload): \($p | length) pairs; correct \([$p[], $c[] | select(.correct)] | length)/\(($p | length) * 2) runs, failed operations parent \([$p[].failed] | add) change \([$c[].failed] | add)",
	"",
	"| metric | parent median (IQR) | change median | change/parent | change better in | per-pair ratios |",
	"|---|---|---|---|---|---|",
	($bench[0].end_to_end[] as $m
	| [$p[].metrics[$m.name].value] as $pv | [$c[].metrics[$m.name].value] as $cv
	| [range(0; $pv | length) | div($cv[.]; $pv[.])] as $ratios
	| [range(0; $pv | length) | select(if $m.better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)] as $wins
	| "| `\($m.name)` | \($pv | q(0.5) | fmt) (\(($pv | q(0.75)) - ($pv | q(0.25)) | fmt)) | \($cv | q(0.5) | fmt) | \(div($cv | q(0.5); $pv | q(0.5)) | r2) | \($wins | length)/\($pv | length) | \([$ratios[] | r2] | join(", ")) |")
'
