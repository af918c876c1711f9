GO ?= go
FUZZTIME ?= 10s
BENCHOUT ?=
FUZZPKGS ?= ./internal/dynet ./internal/faults ./internal/advsearch ./internal/bitio ./internal/rng ./internal/adversaries

.PHONY: build test race stress lint fuzz bench benchtest chaos ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Repeated runs of the serving layer, whose parallel tests run real sweeps
# side by side: a test that leaks state into another fails here. The wire
# line repeats the distributed runs under the race detector, where a node
# rejoining late in a run races the coordinator's shutdown. The harness
# line repeats the sweep worker-pool tests under the race detector, since
# sweeps run their cells on every core by default.
stress:
	$(GO) test -count=200 ./internal/serve
	$(GO) test -race -count=10 ./internal/serve
	$(GO) test -race -count=20 -run 'TestDistributed' ./internal/wire
	$(GO) test -race -count=10 -run 'Parallel|Golden|Workers|Degradation' ./internal/harness ./internal/advsearch

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dynlint ./...

# Regenerate the tracked benchmark baseline (BENCH_<date>.json). Set
# BENCHOUT to override the output path, e.g. `make bench BENCHOUT=/tmp/b.json`.
bench:
	$(GO) run ./cmd/bench $(if $(BENCHOUT),-out $(BENCHOUT))

# perfbench is its own module, so the root `go test ./...` never reaches
# its tests; CI runs them separately, and so does this target.
benchtest:
	cd perfbench && $(GO) test ./...

# Short smoke run of every native fuzz target in FUZZPKGS.
fuzz:
	@for pkg in $(FUZZPKGS); do \
		targets=$$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); \
		for target in $$targets; do \
			echo "==> $$pkg $$target"; \
			$(GO) test $$pkg -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) || exit 1; \
		done; \
	done

# Small deterministic fault grid: degradation tables for both protocols
# plus the zero-overhead gate against the clean leader baseline.
chaos:
	$(GO) run ./cmd/chaos -n 16 -trials 6 -rates 0,0.05,0.3 -dims drop,crash

ci: build lint test benchtest race stress fuzz chaos
