#!/bin/sh
# bench_ab.sh benchmarks a base revision against the working tree on one
# host and writes one BENCH_*.json snapshot for each, the base first, so
# that `make benchcheck` gates the change against the base.
#
#   BASE=<rev> [N=5] [BENCH=<regex>] [BENCHTIME=1s] sh scripts/bench_ab.sh
#
# The base is exported with `git archive` into a temporary directory
# (under $TMPDIR) and gets the working tree's bench_test.go, so both
# sides run the same benchmark code. Both test binaries are built first,
# then run alternately N times, one full pass of the filtered suite each
# turn, so that drift on a shared host lands on both sides alike. Each
# side's samples go through tools/benchjson, which keeps the fastest of
# the N per benchmark; every sample is also echoed to stderr, tagged
# base or change, so the spread behind each minimum stays visible.
# A BENCH-filtered pair lacks most hot paths, and `make benchcheck`
# fails on a newest snapshot that lacks one: commit only a full-suite
# pair.
set -eu

: "${BASE:?set BASE to the revision to compare against}"
GO=${GO:-go}
N=${N:-5}
BENCH=${BENCH:-.}
BENCHTIME=${BENCHTIME:-1s}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/base"
git archive "$BASE" | tar -x -C "$work/base"
cp bench_test.go "$work/base/bench_test.go"
(cd "$work/base" && "$GO" test -c -o "$work/base.test" .)
"$GO" test -c -o "$work/change.test" .

run() { # side dir binary
	(cd "$2" && "$3" -test.run '^$' -test.bench "$BENCH" -test.benchmem \
		-test.benchtime "$BENCHTIME" -test.count 1 -test.timeout 60m) >"$work/run.txt"
	cat "$work/run.txt" >>"$work/$1.txt"
	grep '^Benchmark' "$work/run.txt" | sed "s/^/bench-ab: $1 /" >&2
}

i=1
while [ "$i" -le "$N" ]; do
	echo "bench-ab: round $i of $N" >&2
	run base "$work/base" "$work/base.test"
	run change . "$work/change.test"
	i=$((i + 1))
done

base=BENCH_$(date -u +%Y-%m-%dT%H%M%SZ).json
"$GO" run ./tools/benchjson <"$work/base.txt" >"$base" 2>/dev/null
# Snapshot names order chronologically; the change's must sort after.
sleep 1
change=BENCH_$(date -u +%Y-%m-%dT%H%M%SZ).json
"$GO" run ./tools/benchjson <"$work/change.txt" >"$change" 2>/dev/null
echo "bench-ab: wrote $base (base $BASE) and $change (working tree)"
