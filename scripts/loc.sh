#!/usr/bin/env bash
# Non-test library size: lines of the .ml, .mli and .c files under lib/,
# one row per library, then the total. Run from anywhere:
#   scripts/loc.sh        # or: make loc
set -eu -o pipefail
cd "$(dirname "$0")/.."

find lib -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.c' \) -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" { split($2, p, "/"); lines[p[2]] += $1; total += $1 }
       END {
         for (l in lines) printf "%-10s %6d\n", l, lines[l] | "sort"
         close("sort")
         printf "%-10s %6d\n", "total", total
       }'
