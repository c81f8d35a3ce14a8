#!/usr/bin/env bash
# perf-gate judges HEAD against its first parent with the benchmark driver
# (./benchmark). On a pull-request merge checkout HEAD^1 is the base branch
# tip; on a push it is the previous commit. Both commits are checked out in
# temporary worktrees and their drivers built once; the drivers then run
# every workload end to end in the order base, head, head, base, base, head,
# and `benchmark -compare` (the base's driver, so a change cannot soften its
# own judge) reports each (base, head) pair against the bounds in
# BENCHMARK.json.
#
# The gate fails when a head run exits non-zero (an op failed) or when the
# same workload/metric reads REGRESSION in all three reports. One noisy pair
# on a shared runner reads REGRESSION on wall-clock metrics now and then;
# a real regression, and any allocation one, repeats in every pair. DIFFERS
# lines (simulated results that changed) are printed but do not fail the
# gate: output identity is pinned by the CSV tests.
#
#	make perf-gate
set -euo pipefail

start=$SECONDS
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	for side in base head; do
		git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/base" HEAD^1
git -C "$root" worktree add --quiet --detach "$tmp/head" HEAD
echo "perf-gate: base $(git -C "$tmp/base" log -1 --format='%h %s')"
echo "perf-gate: head $(git -C "$tmp/head" log -1 --format='%h %s')"
for side in base head; do
	(cd "$tmp/$side" && go build -o "$tmp/driver-$side" ./benchmark)
done

failed=0
drive() { # drive SIDE N: run SIDE's driver over every workload into SIDE-N.json
	local side=$1 n=$2 t0=$SECONDS code=0
	(cd "$tmp/$side" && "$tmp/driver-$side" --trace 0 --seconds 4 -o "$tmp/$side-$n.json") >"$tmp/$side-$n.log" 2>&1 || code=$?
	echo "perf-gate: $side run $n: exit $code, $((SECONDS - t0)) s"
	if [ "$code" -ne 0 ]; then
		grep -E 'FAILED|^benchmark:' "$tmp/$side-$n.log" || tail -5 "$tmp/$side-$n.log"
		if [ "$side" = head ]; then
			echo "perf-gate: a head run failed"
			failed=1
		fi
	fi
}
drive base 1
drive head 1
drive head 2
drive base 2
drive base 3
drive head 3

for n in 1 2 3; do
	echo
	echo "=== pair $n: base run $n (A) vs head run $n (B)"
	code=0
	"$tmp/driver-base" -compare "$tmp/base-$n.json" "$tmp/head-$n.json" >"$tmp/compare-$n.txt" 2>&1 || code=$?
	cat "$tmp/compare-$n.txt"
	if [ "$code" -gt 1 ]; then
		echo "perf-gate: FAIL: pair $n could not be compared"
		exit 1
	fi
	# workload/metric of every REGRESSION verdict in this report
	awk '/^== / { w = $2 } $NF == "REGRESSION" { print w "/" $1 }' "$tmp/compare-$n.txt" | sort -u >"$tmp/regressions-$n.txt"
done

echo
for n in 1 2 3; do
	list=$(tr '\n' ' ' <"$tmp/regressions-$n.txt")
	echo "perf-gate: pair $n REGRESSION: ${list:-none}"
done
persistent=$(sort "$tmp"/regressions-[123].txt | uniq -c | awk '$1 == 3 { print $2 }')
if [ -n "$persistent" ]; then
	echo "perf-gate: REGRESSION in all three pairs:"
	echo "$persistent" | sed 's/^/  /'
	failed=1
fi
if [ "$failed" -ne 0 ]; then
	echo "perf-gate: FAIL after $((SECONDS - start)) s"
	exit 1
fi
echo "perf-gate: pass after $((SECONDS - start)) s"
