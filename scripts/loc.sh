#!/bin/sh
# Non-test Go lines: the number ROADMAP's design-diet item and each PR's
# CHANGES.md line quote ("non-test LOC before and after"), then the same
# count per package. benchmark/ is its own module with its own budget;
# testdata holds analyzer fixtures, not product code.
set -eu

cd "$(dirname "$0")/.."

files() {
	find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' ! -path '*/testdata/*'
}

files | xargs cat | wc -l
files | xargs wc -l | awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 }
	END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
