# Developer entry points.  `make check` is the one-command gate: it must
# stay green before every commit (tier-1 verify + engine tests + dune-file
# formatting).

.PHONY: all build test fmt check check-deep chaos corpus bench bench-engine bench-atms bench-session bench-serve bench-obs bench-store serve trace clean

all: build

build:
	dune build

test:
	dune runtest

# dune-file formatting check; OCaml sources are gated off in dune-project
# until an ocamlformat binary is part of the toolchain.
fmt:
	dune build @fmt

check: fmt build test
	@echo "check: build, tests and formatting are green"

# deep verification: differential oracles, random-circuit invariants and
# the golden snapshot corpus (lib/check); ITERS scales every budget
ITERS ?= 1000
check-deep: build
	dune exec bin/flames_cli.exe -- check --iters $(ITERS)

# chaos harness: seeded batches of random diagnoses with injected
# faults (exceptions, worker kills, singular systems, NaN, delays)
# through the full resilience stack; a failing case prints the seed
# that replays it (CHAOS_ITERS and CHAOS_SEED scale/pin the run)
CHAOS_ITERS ?= 25
CHAOS_SEED ?= 0
chaos: build
	dune exec bin/flames_cli.exe -- chaos --iters $(CHAOS_ITERS) --seed $(CHAOS_SEED)

# re-render the golden corpus after an intentional behaviour change
corpus: build
	dune exec bin/flames_cli.exe -- check --iters 1 --no-corpus --write-corpus

# full harness: paper tables, bechamel timings, BENCH_engine.json
bench: build
	dune exec bench/main.exe

# just the engine throughput series (writes BENCH_engine.json)
bench-engine: build
	dune exec bench/main.exe -- --engine-json-only

# naive vs interned-bitset ATMS series (writes BENCH_atms.json);
# add --atms-smoke for the reduced CI variant
bench-atms: build
	dune exec bench/main.exe -- --atms-json-only

# incremental troubleshooting sessions vs per-step cold rebuilds over
# the corpus scenarios (writes BENCH_session.json)
bench-session: build
	dune exec bench/main.exe -- --session-json-only

# observability overhead on the fig-7 diagnosis: wide events + digests
# on vs off, paired runs, median ratio (writes BENCH_obs.json; the CI
# claim is overhead_pct < 3)
bench-obs: build
	dune exec bench/main.exe -- --obs-json-only

# journal durability costs: per-step append overhead over an in-memory
# session at each fsync discipline (paired loops, median ratio) and
# recovery replay time vs journal length (writes BENCH_store.json; the
# claim is interval-mode overhead <= 5)
bench-store: build
	dune exec bench/main.exe -- --store-json-only

# run the diagnosis service on the default port (SERVE_ARGS appends
# e.g. --port 9000 --quota-rate 5)
serve: build
	dune exec bin/flames_cli.exe -- serve $(SERVE_ARGS)

# saturation sweep against an in-process server on an ephemeral port:
# seeded clients, exact latency percentiles, writes BENCH_serve.json
SERVE_SEED ?= 42
SERVE_DURATION ?= 5
SERVE_LEVELS ?= 1,2,4,8,16
bench-serve: build
	dune exec bin/flames_load.exe -- --spawn --workers 1 --max-inflight 4 \
	  --seed $(SERVE_SEED) --duration $(SERVE_DURATION) \
	  --levels $(SERVE_LEVELS) --json BENCH_serve.json

# traced fig-7 sweep: writes trace.json (open in ui.perfetto.dev) and
# dumps the metrics registry on stderr
trace: build
	dune exec bin/flames_cli.exe -- obs-demo --trace trace.json --metrics

clean:
	dune clean
