#!/bin/sh
# scripts/fuzz-smoke.sh — runs every Fuzz* target in the module for 3s.
# go test fuzzes one target per invocation, so the targets are listed first
# and each gets its own `go test -run=^$ -fuzz=^Name$` run. Exits non-zero
# on the first failure; the failing input is written under the package's
# testdata/fuzz/ and replays with a plain `go test -run=Name/<id>`.
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"

# `go test -list` prints a package's matching names, then its "ok <pkg>" line.
# Its output is kept in a variable first so that a package whose tests fail
# to build stops the script here instead of silently dropping its targets.
list=$("$GO" test -list '^Fuzz' ./...)
targets=$(printf '%s\n' "$list" | awk '
	/^Fuzz/ { names = names " " $1; next }
	/^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print $2, a[i]; names = "" }')
if [ -z "$targets" ]; then
    echo "fuzz-smoke: no Fuzz targets found" >&2
    exit 1
fi

printf '%s\n' "$targets" | while read -r pkg name; do
    echo "==> $name ($pkg)"
    "$GO" test -run='^$' -fuzz="^$name\$" -fuzztime=3s "$pkg"
done
echo "fuzz-smoke: ok ($(printf '%s\n' "$targets" | wc -l | tr -d ' ') targets)"
