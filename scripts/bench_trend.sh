#!/usr/bin/env bash
# Per-bench-id perf trend: compares the working-tree BENCH_*.json
# baselines against the committed ones and prints one line per bench id,
#
#   bench-trend|BENCH_micro.json|name=sha256/64B|ns_per_op 947.8 -> 950.1 (+0.2%)
#
# Usage:
#   scripts/bench_trend.sh [REF]     # default REF: HEAD
#
# Regenerate a baseline first (e.g. `make bench-micro`), then run this
# to see what moved before committing it. Ids present only on one side
# are reported as new/removed. Exit status is always 0 — this is a
# report, not a gate (the gate is --check-regressions).
set -u
cd "$(dirname "$0")/.."
ref="${1:-HEAD}"

# trend FILE IDKEYS METRIC — IDKEYS is a space-separated list of JSON
# keys whose values (joined) identify a benchmark line; METRIC is the
# headline number to diff. Lines without METRIC are skipped, so one file
# can hold several benchmark shapes (BENCH_net.json does).
trend() {
  local file="$1" idkeys="$2" metric="$3"
  [ -f "$file" ] || return 0
  local base
  if ! base=$(git show "$ref:$file" 2>/dev/null); then
    echo "bench-trend|$file|no baseline at $ref"
    return 0
  fi
  awk -v idkeys="$idkeys" -v metric="$metric" -v file="$file" '
    function getval(line, key,    re, s) {
      re = "\"" key "\":[ ]*"
      if (!match(line, re)) return ""
      s = substr(line, RSTART + RLENGTH)
      sub(/^"/, "", s)
      sub(/[",}].*$/, "", s)
      return s
    }
    function getid(line,    i, id, v) {
      id = ""
      for (i = 1; i <= nk; i++) {
        v = getval(line, keys[i])
        if (v != "") id = id (id == "" ? "" : ",") keys[i] "=" v
      }
      return id
    }
    BEGIN { nk = split(idkeys, keys, " ") }
    {
      m = getval($0, metric)
      if (m == "") next
      id = getid($0)
      if (id == "") next
      if (pass == "base") { base[id] = m; order[++n] = id }
      else {
        seen[id] = 1
        if (id in base) {
          b = base[id] + 0
          c = m + 0
          if (b != 0)
            printf "bench-trend|%s|%s|%s %s -> %s (%+.1f%%)\n",
              file, id, metric, base[id], m, (c - b) / b * 100
          else
            printf "bench-trend|%s|%s|%s %s -> %s\n", file, id, metric, base[id], m
        } else
          printf "bench-trend|%s|%s|new id (no entry at ref)\n", file, id
      }
    }
    END {
      if (pass != "base")
        for (i = 1; i <= n; i++)
          if (!(order[i] in seen))
            printf "bench-trend|%s|%s|removed (present only at ref)\n", file, order[i]
    }
  ' pass=base - pass=cur "$file" <<<"$base"
}

trend BENCH_micro.json "name" ns_per_op
trend BENCH_sim.json "n" events_per_s
trend BENCH_net.json "n" frames_per_s
trend BENCH_net.json "leg n" consensus_frames_per_s
trend BENCH_verify.json "leg" blocks_per_s
trend BENCH_store.json "policy" records_per_s
exit 0
