#!/usr/bin/env bash
# Fails when a `go test -run` or `-bench` selector in a workflow file names
# nothing. go test passes silently on a regex that matches no test, so a
# renamed or deleted test would quietly drop out of the gate that names it.
# Every alternative of every selector must list at least one test,
# benchmark or fuzz target in the packages its command names. `-run NONE`
# and `-run '^$'` (benchmark-only runs) select nothing on purpose.
#
#   bash .github/check_test_selectors.sh .github/workflows/ci.yml
set -euo pipefail
set -f # selector regexes and package patterns are not globs

workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	[[ $line =~ ^[[:space:]]*# ]] && continue
	cmd=${line#*go test }
	cmd=${cmd%% | *} # drop a trailing `| tee ...`
	pkgs=()
	sels=()
	flag=
	for w in $cmd; do
		w=${w//\'/}
		if [[ -n $flag ]]; then
			sels+=("$flag $w")
			flag=
			continue
		fi
		case $w in
		-run | -bench) flag=$w ;;
		-run=* | -bench=*) sels+=("${w%%=*} ${w#*=}") ;;
		. | ./*) pkgs+=("$w") ;;
		esac
	done
	for sel in "${sels[@]+"${sels[@]}"}"; do
		kind=${sel%% *}
		pattern=${sel#* }
		if [[ $kind == -run && ($pattern == NONE || $pattern == '^$') ]]; then
			continue
		fi
		names=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if ! grep -qE -- "$alt" <<<"$names"; then
				echo "$workflow: $kind alternative '$alt' lists no test in ${pkgs[*]}" >&2
				status=1
			fi
		done
	done
done < <(grep 'go test ' "$workflow")
exit $status
