#!/usr/bin/env bash
# Prints non-test Go lines per package directory (every line of every
# *.go file that is not a *_test.go), largest first, then the total.
# The count is a size trend to watch from change to change, not a gate.
#
# usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

counts=$(find . -name '*.go' ! -name '*_test.go' \
  -not -path './.git/*' -not -path './.bench_build/*' -print0 |
  xargs -0 wc -l |
  awk '
    $2 == "total" { next }
    {
      dir = $2
      sub(/^\.\//, "", dir)
      if (dir ~ /\//) sub(/\/[^\/]*$/, "", dir); else dir = "."
      lines[dir] += $1
    }
    END { for (d in lines) printf "%7d  %s\n", lines[d], d }')

printf '%s\n' "$counts" | sort -k1,1nr -k2
printf '%s\n' "$counts" | awk '{ n += $1 } END { printf "%7d  total\n", n }'
