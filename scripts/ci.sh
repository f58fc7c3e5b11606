#!/usr/bin/env bash
# The CI gate. Runs every step even after a failure so a single run
# reports everything, then prints a machine-readable PASS/FAIL table
# (one `ci-step|name|status|seconds` line per step) and exits non-zero
# if any step failed.
#
# Each step's output is also captured under _ci_logs/<step>.log; when
# $GITHUB_STEP_SUMMARY is set (GitHub Actions), the same table is
# appended there as GitHub-flavored markdown, with each bench step's
# regression verdict (including the worst offender) pulled
# from its log into the Note column.
set -u -o pipefail
cd "$(dirname "$0")/.."

mkdir -p _ci_logs
declare -a STEPS=() STATUSES=() TIMES=() NOTES=()

run_step() {
  local name="$1"
  shift
  local t0=$SECONDS
  echo "==> $name: $*"
  local status log="_ci_logs/$name.log"
  if "$@" 2>&1 | tee "$log"; then status=PASS; else status=FAIL; fi
  local note=""
  case "$name" in
  bench-*)
    # the bench's one verdict line, printed by bench/bench_gate.ml:
    # "micro: PASS no regressions ... (worst <row> <metric> <ratio>x)" or
    # "micro: FAIL <k> gate(s) failed ... (worst <row> <metric> ...)"
    note=$(grep -E ': (PASS|FAIL) ' "$log" | tail -1 || true)
    ;;
  esac
  STEPS+=("$name")
  STATUSES+=("$status")
  TIMES+=("$((SECONDS - t0))")
  NOTES+=("$note")
}

# fmt is enforced wherever ocamlformat exists (CI installs the pinned
# version); a machine without it records SKIP instead of a spurious FAIL.
if command -v ocamlformat >/dev/null 2>&1; then
  run_step fmt dune build @fmt
else
  echo "==> fmt: ocamlformat not installed, skipping"
  STEPS+=(fmt)
  STATUSES+=(SKIP)
  TIMES+=(0)
  NOTES+=("")
fi

run_step build dune build
run_step tier1-tests dune runtest
run_step bench-micro dune exec bench/main.exe -- --only micro --fast --check-regressions
run_step bench-macro dune exec bench/main.exe -- --only macro --fast --check-regressions
run_step bench-net dune exec bench/main.exe -- --only net --fast --check-regressions
run_step bench-verify dune exec bench/main.exe -- --only verify --fast --check-regressions
run_step bench-store dune exec bench/main.exe -- --only store --fast --check-regressions
# the five examples print through the report API and nothing else runs
# them; together they take about half a second
run_examples() {
  local e
  for e in quickstart fast_payments byzantine_leader shard_sizing geo_cluster; do
    dune exec "examples/$e.exe" || return 1
  done
}
run_step examples run_examples
# the HotStuff and PBFT baselines at n=4; each exits non-zero when its
# commit-time safety check fails, and together they take under a second
run_baselines() {
  dune exec bin/leopard_cli.exe -- hotstuff -n 4 --duration 3 --warmup 1 &&
    dune exec bin/leopard_cli.exe -- pbft -n 4 --duration 3 --warmup 1
}
run_step baselines run_baselines
run_step tcp-smoke dune exec bin/leopard_cli.exe -- local-cluster -n 4 --load 2000 \
  --duration 3 --min-confirmed 1000 --drain 10 --metrics-out _ci_logs/tcp-smoke.prom
# the corpus on each plane at n=4, one step per plane: the sim run takes
# about a second, the TCP run (real loopback sockets, wall-clock fault
# schedules) about 80 s and covers the TCP re-send and restart paths
run_step chaos dune exec bin/leopard_cli.exe -- chaos --fast --plane sim --trace-dir _chaos
run_step chaos-tcp dune exec bin/leopard_cli.exe -- chaos --plane tcp --tcp-n 4 \
  --trace-dir _chaos
# every BENCHMARK.json workload for a short window, plus one traced run
# (about a minute): the TCP-plane benchmark still builds, passes its
# correctness gate and prints every declared metric
run_step tcpbench-smoke python3 tcpbench/test_smoke.py

echo
fail=0
for i in "${!STEPS[@]}"; do
  printf 'ci-step|%s|%s|%ss\n' "${STEPS[$i]}" "${STATUSES[$i]}" "${TIMES[$i]}"
  [ "${STATUSES[$i]}" = FAIL ] && fail=1
done

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "## CI gate"
    echo
    echo "| Step | Status | Time | Note |"
    echo "|------|--------|-----:|------|"
    for i in "${!STEPS[@]}"; do
      case "${STATUSES[$i]}" in
      PASS) icon="✅" ;;
      FAIL) icon="❌" ;;
      *) icon="⏭️" ;;
      esac
      note=${NOTES[$i]//|/\\|}
      printf '| %s | %s %s | %ss | %s |\n' \
        "${STEPS[$i]}" "$icon" "${STATUSES[$i]}" "${TIMES[$i]}" "$note"
    done
    echo
  } >>"$GITHUB_STEP_SUMMARY"
fi

exit $fail
