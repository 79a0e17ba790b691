#!/bin/sh
# Runs every example and diffs its stdout against examples/golden/<name>.txt.
# Usage, from the repository root: sh examples/golden/check.sh
#
# The examples run on the virtual clock, so their output is byte-stable,
# with one exception: serverworld's matrix-cell row comes from real
# goroutines racing task teardown, so its fault, error, timeout and pager
# error counts follow host scheduling. Those four columns of any
# "pager=..." row are masked on both sides; the row's cell, verdict, task
# count and invariant count are still compared.
set -u
mask='/^pager=/ { $6 = $7 = $8 = $9 = "-" } { print }'
got=$(mktemp)
want=$(mktemp)
trap 'rm -f "$got" "$want"' EXIT
status=0
for golden in "$(dirname "$0")"/*.txt; do
	name=$(basename "$golden" .txt)
	if ! go run "./examples/$name" >"$got"; then
		echo "FAIL: examples/$name exited nonzero"
		status=1
		continue
	fi
	awk "$mask" "$golden" >"$want"
	if awk "$mask" "$got" | diff -u "$want" -; then
		echo "ok: examples/$name"
	else
		echo "FAIL: examples/$name output differs from $golden"
		status=1
	fi
done
exit $status
