# Developer entry points.  `make check` is the one-command gate: it must
# stay green before every commit (tier-1 verify + engine tests + dune-file
# formatting).

.PHONY: all build test fmt check check-deep chaos corpus serve trace clean

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

# run the diagnosis service on the default port (SERVE_ARGS appends
# e.g. --port 9000 --quota-rate 5)
serve: build
	dune exec bin/flames_cli.exe -- serve $(SERVE_ARGS)

# traced fig-7 sweep: writes trace.json (open in ui.perfetto.dev) and
# dumps the metrics registry on stderr
trace: build
	dune exec bin/flames_cli.exe -- obs-demo --trace trace.json --metrics

clean:
	dune clean
