#!/bin/sh
# coverage.sh [PROFILE] — the test suite, run once with every package of the
# root module instrumented (-coverpkg=./...), and the reach ratchet (ROADMAP
# item 9). A statement is reached when any test binary ran it. Prints
# "uncovered N of T" statements and the per-package counts, most uncovered
# first; fails when a test fails, or when N exceeds MAX_UNCOVERED if that is
# set. The profile goes to PROFILE (default: a temporary file).
set -eu
out=${1:-$(mktemp)}
go test -coverpkg=./... -coverprofile="$out" ./...
awk '
	/^mode:/ { next }
	{ n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in n) {
			p = b; sub(/\/[^\/]*:.*/, "", p)
			t[p] += n[b]
			if (!(b in hit)) u[p] += n[b]
		}
		for (p in t) printf "%s %d %d\n", p, u[p], t[p]
	}' "$out" | sort -k2,2nr -k1,1 | awk -v max="${MAX_UNCOVERED:-}" '
	{ printf "%6d of %5d  %s\n", $2, $3, $1; un += $2; tot += $3 }
	END {
		printf "uncovered %d of %d", un, tot
		if (max != "") printf " (ratchet: %d)", max
		printf "\n"
		if (max != "" && un > max + 0) exit 1
	}'
