#!/usr/bin/env bash
# The perf gate: times the gated hot-path benchmarks of a parent commit
# and of the working tree side by side on this machine, and fails when
# the working tree made one slower. Run it from the repository root:
#
#   bash perf/gate.sh <parent-ref>
#
# It builds the gated packages' test binaries once from <parent-ref>
# (exported with git archive into a temporary directory) and once from
# the working tree, then runs 20 alternating pairs: in each pair every
# gated package runs its benchmarks on both sides, the parent first in
# odd pairs and the change first in even ones, each side appending to
# its own output file. `symbiosim perfgate` then compares the two files
# and sets the exit code: 0 when no benchmark failed, 1 when one did, 2
# for a usage error or output it cannot pair. A benchmark fails when
# the change's median ns/op is more than 10% above the parent's and the
# change was slower in at least 18 of the 20 pairs (internal/resultdb,
# Gate). The pair count is fixed because it sets how often unchanged
# code fails: if each pair is a fair coin, one benchmark reaches 18 of
# 20 with probability about 2e-4, and some one of the 25 gated ones in
# about 0.5% of runs (at 10 pairs, 9 of 10: about 23%). A run takes
# about three and a quarter minutes on a 2-CPU host, the build
# included. The raw outputs are kept in a temporary directory, whose
# path is printed on stderr.
#
# Both sides run at one benchtime on one CPU, and nothing is stored
# between runs: a slower machine slows both sides alike.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: bash perf/gate.sh <parent-ref>" >&2
	exit 2
fi
parent=$1 pairs=20

# The gated set: one existing benchmark family per layer, as
# "<package> <-test.bench pattern>".
gated=(
	"internal/sched BenchmarkSchedulerSelect/.*/depth=32$"
	"internal/eventsim BenchmarkServerReschedule/.*/depth=32$"
	"internal/farm BenchmarkDispatcherPick|BenchmarkFarmSharded"
	"internal/online BenchmarkOnlineEstimator|BenchmarkLearnedSelect"
)

. "$(dirname "$0")/lib.sh"
perf_init perf/gate.sh "$parent"
perf_export "$parent"
for entry in "${gated[@]}"; do
	pkg=${entry%% *}
	perf_go -C "$tmp/parent-src" test -c -o "$tmp/bin/parent-${pkg##*/}.test" "./$pkg"
	perf_go -C "$root" test -c -o "$tmp/bin/change-${pkg##*/}.test" "./$pkg"
done
perf_go -C "$root" build -o "$tmp/bin/symbiosim" ./cmd/symbiosim

# run <side> <package> <pattern>: one run of the package's gated
# benchmarks, from the package directory of that side's tree.
run() {
	local dir=$root/$2
	if [[ $1 == parent ]]; then
		dir=$tmp/parent-src/$2
	fi
	(cd "$dir" && "$tmp/bin/$1-${2##*/}.test" -test.run '^$' -test.bench "$3" \
		-test.benchtime 0.1s -test.cpu 1 -test.timeout 10m) >>"$tmp/$1.txt" || {
		echo "perf/gate.sh: the $1 benchmarks of $2 failed; see $tmp/$1.txt" >&2
		exit 1
	}
}
for ((k = 1; k <= pairs; k++)); do
	echo "perf/gate.sh: pair $k of $pairs" >&2
	for entry in "${gated[@]}"; do
		pkg=${entry%% *} pattern=${entry#* }
		if ((k % 2 == 1)); then
			run parent "$pkg" "$pattern"
			run change "$pkg" "$pattern"
		else
			run change "$pkg" "$pattern"
			run parent "$pkg" "$pattern"
		fi
	done
done
"$tmp/bin/symbiosim" perfgate "$tmp/parent.txt" "$tmp/change.txt"
