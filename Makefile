# Convenience entry points; everything is plain dune underneath.

.PHONY: check ci fmt fmt-check chaos loc build test bench bench-fast bench-micro bench-macro bench-net bench-verify bench-store bench-trend clean

check: ## build + full test suite (tier-1 gate)
	dune build && dune runtest

ci: ## the full gate: fmt, build, tests, perf regressions, TCP smoke, chaos corpus
	bash scripts/ci.sh

fmt: ## rewrite sources with the pinned ocamlformat (no-op if not installed)
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping (CI enforces the pinned version)"; \
	fi

fmt-check: ## fail if sources disagree with the pinned ocamlformat
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping (CI enforces the pinned version)"; \
	fi

chaos: ## deterministic fault-injection corpus on both planes
	dune exec bin/leopard_cli.exe -- chaos --trace-dir _chaos

loc: ## non-test lib/ lines (.ml, .mli, .c), per library and in total
	@bash scripts/loc.sh

build:
	dune build

test:
	dune runtest

bench: ## every experiment (slow)
	dune exec bench/main.exe

bench-fast: ## micro benches only, reduced quota, compare vs baseline
	dune exec bench/main.exe -- --only micro --fast --check-regressions

bench-micro: ## full micro benches, rewrite BENCH_micro.json
	dune exec bench/main.exe -- --only micro

bench-macro: ## full-protocol simulator scaling bench, rewrite BENCH_sim.json
	dune exec bench/main.exe -- --only macro

bench-net: ## transport data-plane bench over loopback TCP, rewrite BENCH_net.json
	dune exec bench/main.exe -- --only net

bench-verify: ## verification pool vs inline bench, rewrite BENCH_verify.json
	dune exec bench/main.exe -- --only verify

bench-store: ## WAL append/recovery bench, rewrite BENCH_store.json
	dune exec bench/main.exe -- --only store

bench-trend: ## one-line delta per bench id, working tree vs committed baselines
	bash scripts/bench_trend.sh

clean:
	dune clean
