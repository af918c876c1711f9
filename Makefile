GO ?= go
FUZZTIME ?= 10s
FUZZPKGS ?= ./internal/dynet ./internal/faults ./internal/advsearch ./internal/bitio ./internal/rng ./internal/adversaries ./internal/bitkernel

.PHONY: build test race stress lint fuzz benchgate benchtest chaos ci

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

# The layer benchmark gate. The parent commit (HEAD^1) is extracted into a
# temp dir and each side's test binary is built once. The two binaries then
# take turns, base, head, base, head, base, head, each running the gated
# benchmarks once in its own tree, so drift in the host's speed during the
# run falls on both sides alike. cmd/bench then fails if any median ns/op
# or rounds/s regressed by more than 100%. Shared runners are noisy, so the
# bound catches cliffs only; run cmd/bench on the two outputs at
# -max-regress 20 for a tight local check. Both outputs stay in
# bench-base.txt and bench-head.txt.
benchgate:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/tree"; git archive HEAD^1 | tar -x -C "$$tmp/tree"; \
	(cd "$$tmp/tree" && $(GO) test -c -o "$$tmp/base.test" .); \
	$(GO) test -c -o "$$tmp/head.test" .; \
	: > bench-base.txt; : > bench-head.txt; \
	pass() { (cd "$$1" && "$$2" -test.run '^$$' -test.bench '^Benchmark(Thm6CFloodReduction|Thm8LeaderElect|GapTable|GapTableSweep|MeasureDynamicDiameter|EngineRingFlood|EngineHugeN)$$' -test.benchmem -test.count 1 -test.timeout 10m) > "$$tmp/pass.txt" 2>&1 || { cat "$$tmp/pass.txt"; exit 1; }; cat "$$tmp/pass.txt"; cat "$$tmp/pass.txt" >> "$$3"; }; \
	for i in 1 2 3; do \
		echo "==> parent $$(git log -1 --format='%h %s' HEAD^1), pass $$i"; pass "$$tmp/tree" "$$tmp/base.test" bench-base.txt; \
		echo "==> head, pass $$i"; pass . "$$tmp/head.test" bench-head.txt; \
	done; \
	$(GO) run ./cmd/bench -max-regress 100 bench-base.txt bench-head.txt

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
