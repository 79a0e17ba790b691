#!/bin/sh
# Diffs the virtual-clock outputs of the command-line tools against the
# goldens in this directory:
#   benchtables-all.txt  go run ./cmd/benchtables -table all
#   vmtrace-<arch>.txt   go run ./cmd/vmtrace -arch <arch> stats
# Usage, from the repository root: sh cmd/golden/check.sh
#
# Both tools run on the virtual clock only, so their output is byte-stable
# and covers all five pmap modules (the paper tables and §5 experiments
# for vax, rtpc and sun3 plus ns32082's TLB-strategy rows; one short
# fault trace per architecture). If a change is meant to alter them,
# regenerate the goldens and say why.
set -u
dir=$(dirname "$0")
got=$(mktemp)
trap 'rm -f "$got"' EXIT
status=0

check() {
	golden=$1
	shift
	if ! go run "$@" >"$got"; then
		echo "FAIL: go run $* exited nonzero"
		status=1
		return
	fi
	if diff -u "$golden" "$got"; then
		echo "ok: $*"
	else
		echo "FAIL: go run $* output differs from $golden"
		status=1
	fi
}

check "$dir/benchtables-all.txt" ./cmd/benchtables -table all
for arch in vax sun3 ns32082 rtpc tlbonly; do
	check "$dir/vmtrace-$arch.txt" ./cmd/vmtrace -arch "$arch" stats
done
exit $status
