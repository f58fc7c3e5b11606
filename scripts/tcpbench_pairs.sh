#!/usr/bin/env bash
# Paired A/B runs of one tcpbench workload: a git revision against the
# working tree.
#
#   scripts/tcpbench_pairs.sh [--metric NAME] <rev> <workload> <seconds> <seed>...
#   scripts/tcpbench_pairs.sh --metric confirm_p50_ms HEAD leader-crash-n7 40 7001 7002
#
# <rev> is built in a temporary export of that revision (git archive),
# the working tree in place; neither has anything under tcpbench/
# changed. For each seed both sides run
# `python3 tcpbench/run.py --workload W --seed S --seconds T --trace 0`
# once, in turn; which side goes first alternates from seed to seed, so a
# slow spell of a shared host lands on both. One row per seed gives each
# side's host CPU steal and the value of one metric (--metric, one of the
# end_to_end names in BENCHMARK.json; default cpu_us_per_req), and the
# change's delta. The summary gives, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the change in the
# medians, and the pairs the working tree won in the metric's better
# direction. Then one no-regression line per end-to-end metric: REGRESSION
# when the working tree's median is worse than rev's by more than the
# metric's bound in BENCHMARK.json, unresolved when rev's q3 - q1 exceeds
# the bound (unless every working-tree run beats every rev run), ok
# otherwise. A last line gives the verdict on --metric: a gain holds when
# the working tree wins at least 9/10 of the pairs and its median beats
# rev's by more than rev's q3 - q1. The export and the raw results (kept under ${TMPDIR:-/tmp}
# while it runs) are removed on exit. A run that fails its correctness
# check stops the script.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '5,6p' "$0" | sed 's/^# *//' >&2
  exit 2
}
metric=cpu_us_per_req
if [ "${1:-}" = --metric ]; then
  [ $# -ge 2 ] || usage
  metric="$2"
  shift 2
  python3 - "$metric" <<'EOF' || exit 2
import json, sys
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
if sys.argv[1] not in names:
    sys.exit("tcpbench_pairs: --metric %s is not an end_to_end metric of BENCHMARK.json (%s)"
             % (sys.argv[1], ", ".join(names)))
EOF
fi
[ $# -ge 4 ] || usage
rev="$1" workload="$2" seconds="$3"
shift 3

tmp="$(mktemp -d "${TMPDIR:-/tmp}/tcpbench_pairs.XXXXXX")"
base="$tmp/base"
trap 'rm -rf "$tmp"' EXIT
mkdir "$base"
git archive "$rev" | tar -x -C "$base"

# run SIDE DIR SEED: one run in DIR; its whole output goes to
# $tmp/SIDE.SEED, and a failed run stops the script with that output.
run() {
  local side="$1" dir="$2" seed="$3" out="$tmp/$1.$3"
  if ! (cd "$dir" && python3 tcpbench/run.py --workload "$workload" --seed "$seed" \
          --seconds "$seconds" --trace 0) >"$out" 2>"$out.err"; then
    echo "tcpbench_pairs: $side seed $seed failed:" >&2
    tail -n 20 "$out" "$out.err" >&2
    exit 1
  fi
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run rev "$base" "$seed"
    run wt . "$seed"
  else
    run wt . "$seed"
    run rev "$base" "$seed"
  fi
  i=$((i + 1))
done

python3 - "$tmp" "$rev" "$workload" "$metric" "$@" <<'EOF'
import json, re, statistics, sys

tmp, rev, workload, key, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
bench = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def load(side, seed):
    lines = open("%s/%s.%s" % (tmp, side, seed)).read().splitlines()
    steal = next((float(m.group(1)) for l in lines
                  for m in [re.search(r"host_steal=([0-9.]+)%", l)] if m), float("nan"))
    res = json.loads(lines[-1])
    return steal, {k: v["value"] for k, v in res["metrics"].items()}


runs = {s: (load("rev", s), load("wt", s)) for s in seeds}
print("%s, %d pairs of runs: %s (rev) against the working tree (wt)"
      % (workload, len(seeds), rev))
print("%-8s %-6s %9s %9s %11s %11s %8s" % ("seed", "first", "steal rev", "steal wt",
                                           key + " rev", "wt", "delta"))
for i, s in enumerate(seeds):
    (sr, mr), (sw, mw) = runs[s]
    print("%-8s %-6s %8.1f%% %8.1f%% %11.4g %11.4g %+7.1f%%"
          % (s, "rev" if i % 2 == 0 else "wt", sr, sw, mr[key], mw[key],
             100 * (mw[key] / mr[key] - 1) if mr[key] else float("nan")))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print()
print("%-16s %-34s %-34s %9s %6s" % ("metric", "rev median [q1, q3]", "wt median [q1, q3]",
                                      "delta", "wins"))
regressions = []
for name, better, bound in metrics:
    a = [runs[s][0][1][name] for s in seeds]
    b = [runs[s][1][1][name] for s in seeds]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    beats = (lambda y, x: y < x) if better == "lower" else (lambda y, x: y > x)
    wins = sum(1 for x, y in zip(a, b) if beats(y, x))
    delta = "%+8.1f%%" % (100 * (bm / am - 1)) if am else "%9s" % "-"
    print("%-16s %-34s %-34s %s %3d/%d"
          % (name, "%.4g [%.4g, %.4g]" % (am, a1, a3), "%.4g [%.4g, %.4g]" % (bm, b1, b3),
             delta, wins, len(seeds)))
    if name == key:
        verdict = (wins, (am - bm if better == "lower" else bm - am), a3 - a1)
    # Both as fractions of rev's median, the unit of the bound.
    rel = lambda d: d / abs(am) if am else (0.0 if d == 0 else float("inf"))
    worse, spread = rel(bm - am if better == "lower" else am - bm), rel(a3 - a1)
    if all(beats(y, x) for x in a for y in b):
        status = "ok"
    elif spread > bound:
        status = "unresolved"
    else:
        status = "REGRESSION" if worse > bound else "ok"
    regressions.append((name, status, worse, spread, bound))

# No end-to-end median may be worse than rev's by more than its bound;
# a rev spread wider than the bound cannot tell, unless wt beats rev in
# every run.
print()
for name, status, worse, spread, bound in regressions:
    print("no-regression %-16s %-10s (wt median %+.1f%% worse; rev q3-q1 %.1f%%; bound %.0f%%)"
          % (name, status, 100 * worse, 100 * spread, 100 * bound))

# A gain in --metric is claimed when the working tree wins at least 9 of
# every 10 pairs and its median beats rev's by more than rev's q3 - q1.
wins, gap, spread = verdict
holds = 10 * wins >= 9 * len(seeds) and gap > spread
print()
print("verdict %s: %s (wt wins %d/%d, needs 9/10; median gain %.4g %s rev q3-q1 %.4g)"
      % (key, "gain holds" if holds else "no gain", wins, len(seeds), gap,
         ">" if gap > spread else "<=", spread))
EOF
