#!/usr/bin/env bash
# Go line delta between a base ref and the working tree, split into
# non-test code and test code (_test.go files and testdata/). The
# perfbench/ harness is excluded. Only tracked files count: `git add`
# new files first.
#
#   scripts/loc.sh <base-ref>     (default HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:-HEAD~1}

git diff --no-renames --numstat "$BASE" -- '*.go' ':!perfbench' | awk -v base="$BASE" '
{
	k = ($3 ~ /_test\.go$/ || $3 ~ /(^|\/)testdata\//) ? 2 : 1
	add[k] += $1; del[k] += $2
}
END {
	name[1] = "non-test"; name[2] = "test"
	printf "Go lines vs %s (perfbench/ excluded)\n", base
	printf "%-10s %8s %8s %8s\n", "", "added", "removed", "net"
	for (k = 1; k <= 2; k++)
		printf "%-10s %8d %8d %+8d\n", name[k], add[k], del[k], add[k] - del[k]
}'
