#!/usr/bin/env bash
# The benchmark's one command: every workload untraced (end-to-end metrics),
# every workload again traced (per-layer metrics), output checks, one printed
# line per metric and bench/out/result.json with host metadata.
#
#   bench/run.sh [-seed N] [-workload name] [-seconds S] [-quick] [-allow-dirty]
#
# A committed number must name a commit: the script refuses to run when the
# work tree under internal/ or cmd/ has uncommitted changes, unless
# -allow-dirty, and records commit and dirtiness in result.json.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=0
args=()
for a in "$@"; do
	case "$a" in
	-allow-dirty | --allow-dirty) allow=1 ;;
	*) args+=("$a") ;;
	esac
done

commit=unknown
dirty=false
if git rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD)
	if [ -n "$(git status --porcelain -- internal cmd)" ]; then
		dirty=true
	fi
fi
if [ "$dirty" = true ] && [ "$allow" = 0 ]; then
	echo "bench/run.sh: internal/ or cmd/ has uncommitted changes; commit them or pass -allow-dirty" >&2
	exit 2
fi

exec go run ./bench -all -commit "$commit" -dirty="$dirty" "${args[@]}"
