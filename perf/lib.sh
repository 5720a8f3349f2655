# Helpers perf/ab.sh and perf/gate.sh source: resolving the parent
# commit, exporting its tree, and building with the hermetic, offline
# environment of perfbench/run.sh.

# perf_init <script> <parent-ref>: checks that <parent-ref> names a
# commit and sets root (the repository root) and tmp (a new temporary
# directory, printed on stderr). On exit the parent's tree, the build
# caches and the binaries under tmp are removed; the raw results stay.
perf_init() {
	root=$(git rev-parse --show-toplevel)
	git -C "$root" rev-parse --verify --quiet "$2^{commit}" >/dev/null || {
		echo "$1: unknown commit $2" >&2
		exit 2
	}
	tmp=$(mktemp -d)
	echo "$1: raw results in $tmp" >&2
	trap 'rm -rf "$tmp/go" "$tmp/parent-src" "$tmp/bin"' EXIT
	mkdir -p "$tmp/bin"
}

# perf_export <ref>: the tree of <ref>, exported with git archive into
# $tmp/parent-src.
perf_export() {
	mkdir -p "$tmp/parent-src"
	git -C "$root" archive "$1" | tar -x -C "$tmp/parent-src"
}

# perf_go <args>...: go with the build environment of perfbench/run.sh,
# its caches under the temporary directory and no network.
perf_go() {
	mkdir -p "$tmp/go/tmp" "$tmp/go/config"
	GOCACHE="$tmp/go/cache" GOPATH="$tmp/go/path" GOTMPDIR="$tmp/go/tmp" \
		XDG_CONFIG_HOME="$tmp/go/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go "$@"
}
