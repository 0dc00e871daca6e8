#!/bin/sh
# linked.sh — the link-reach ratchet (ROADMAP item 9's second deletion list).
# Builds the four programs (cmd/experiments, cmd/placement,
# cmd/stopwatch-sim and bench) with inlining off, so a one-line function a
# caller inlined still has its own symbol, and lists every non-test
# function of the root module's library packages (the façade and
# internal/*) that no program links: code only its own tests reach.
# Prints one "unlinked <func>" line each, then "unlinked N"; fails when N
# exceeds MAX_UNLINKED if that is set.
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for p in experiments placement stopwatch-sim; do
	go build -gcflags=all=-l -o "$dir/$p" "./cmd/$p"
done
go build -C bench -gcflags=all=-l -o "$dir/bench" .
# Every linked symbol of the module, type arguments stripped: an
# instantiation's name holds spaces (go.shape.struct { ... }), so the name
# is the rest of the line after nm's address and kind, not one field.
for p in experiments placement stopwatch-sim bench; do
	go tool nm "$dir/$p"
done | awk '{
	s = $0; sub(/^ *[0-9a-f]* +[A-Za-z] +/, "", s)
	if (s !~ /^stopwatch[.\/]/) next
	while (gsub(/\[[^][]*\]/, "", s)) {}
	print s
}' | sort -u >"$dir/linked"
# Every declared function and method, as the symbol the linker would give
# it, from the files the default build compiles (build tags honoured).
go list -f '{{if ne .Name "main"}}{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}{{end}}' ./... | while read -r pkg file; do
	awk -v pkg="$pkg" '
	/^func / {
		s = $0; sub(/^func +/, "", s)
		recv = ""
		if (s ~ /^\(/) {
			recv = s; sub(/[)[].*/, "", recv); sub(/^\(/, "", recv)
			n = split(recv, f, " "); recv = f[n]
			if (recv ~ /^\*/) recv = "(" recv ")"
			sub(/^\([^)]*\) */, "", s)
		}
		name = s; sub(/[[(].*/, "", name)
		if (name == "init" || name == "_") next
		print pkg "." (recv == "" ? "" : recv ".") name
	}' "$file"
done | sort -u >"$dir/declared"
comm -23 "$dir/declared" "$dir/linked" | awk -v max="${MAX_UNLINKED:-}" '
	{ print "unlinked " $0; n++ }
	END {
		printf "unlinked %d", n
		if (max != "") printf " (ratchet: %d)", max
		printf "\n"
		if (max != "" && n > max + 0) exit 1
	}'
