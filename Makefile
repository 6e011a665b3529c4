# Convenience targets for the budgetwf reproduction.

GO ?= go

.PHONY: all build vet test bench figs figs-quick report fuzz serve serve-pool \
	loadtest loadtest-tenants chaos clean bench-json bench-json-check bench-json-smoke \
	bench-est lines deadcode

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The deletion ledger's count (ROADMAP item 15): non-test Go lines
# outside benchmark/, per directory and in total, then on the last line
# the test-Go total outside benchmark/. Reports only.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); by[d] += $$1; sum += $$1 } \
			END { for (d in by) printf "%7d %s\n", by[d], d; printf "%7d total\n", sum }' | sort -k2
	@find . -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l | \
		awk '{ printf "%7d test total\n", $$1 }'

test:
	$(GO) test ./...

# The submission artifacts: full test and benchmark logs.
logs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate the committed BENCH_*.json baselines at the repo root
# (deterministic case list from the fixed seed — only the measured
# numbers change between machines). Each suite runs at the GOMAXPROCS
# and benchtime bench.Suites records for it, so a regenerated file
# compares with the one it replaces.
bench-json:
	$(GO) run ./cmd/bench -seed 1 -out .

# Regenerate and validate only the analytic-estimator suite — the
# per-cell counterpart of the sim suite; the sim/est ratio of matching
# cases is the sweep hot-path speedup.
bench-est:
	$(GO) run ./cmd/bench -suite est -seed 1 -out .
	$(GO) run ./cmd/bench -check -suite est -seed 1 -out .

# Validate the committed baselines against the current suite
# definitions (schema intact, case list unchanged, recorded at the
# suite's GOMAXPROCS) and hold them to the suites' limits. Every limit,
# its reading and its verdict are printed by
# `go run ./cmd/bench -check`. Run by CI.
bench-json-check:
	$(GO) run ./cmd/bench -check -seed 1 -out .

# One-iteration smoke run of every suite into a scratch dir (each case
# still measured for the suites' minimum time), then validate it and
# hold it to the same limits — the step that fails CI when this tree
# breaks a limit in a run of its own; `go run ./cmd/bench -check` lists
# them. Does not touch committed files.
bench-json-smoke:
	rm -rf /tmp/bench-smoke && $(GO) run ./cmd/bench -benchtime 1x -seed 1 -out /tmp/bench-smoke
	$(GO) run ./cmd/bench -check -seed 1 -out /tmp/bench-smoke

# Full-scale reproduction of every figure/table (paper methodology).
figs:
	$(GO) run ./cmd/paperfigs -all -svg -html results/report.html -out results

# Reduced-scale smoke reproduction (seconds).
figs-quick:
	$(GO) run ./cmd/paperfigs -all -quick -out results-quick

# Run the scheduling-as-a-service daemon on :8080.
serve:
	$(GO) run ./cmd/budgetwfd -addr :8080

# Run the daemon with the multi-tenant shared VM pool enabled:
# POST /v1/submit, GET /v1/tenants, budgetwfd_tenant_* metrics.
serve-pool:
	$(GO) run ./cmd/budgetwfd -addr :8080 -pool -time-to-shutdown 360

# Drive a running daemon with concurrent /v1/schedule traffic
# (repeats across a few distinct workflows, so the plan cache and the
# admission control both show up in the report).
loadtest:
	$(GO) run ./cmd/loadgen -url http://localhost:8080 -n 200 -c 16 -distinct 4

# Drive a pool-enabled daemon (make serve-pool) with three tenants'
# workflow streams; the report includes per-tenant billing ledgers and
# the cross-tenant VM reuse the shared pool achieved.
loadtest-tenants:
	$(GO) run ./cmd/loadgen -url http://localhost:8080 -tenants 3 -n 30 -c 4

# Chaos harness: boot a real 3-process cluster, SIGKILL a worker and
# kill-restart the coordinator mid-sweep, and verify the merged result
# is byte-identical to an undisturbed run (see internal/dist/chaostest).
chaos:
	$(GO) run ./cmd/loadgen -chaos

# Every fuzz target of the module, 20 s each. The list comes from
# `go test -list`, so a new target runs here, and in CI, unasked.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "$$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 20s $$pkg || exit 1; \
	done

# Fails naming file:line for every function that no binary links
# (cmd/deadcode; its allowlist.txt names the test helpers, test seams
# and oracles that stay). It builds every binary, so CI runs it as a
# step of its own, outside `go test ./...`.
deadcode:
	$(GO) run ./cmd/deadcode

clean:
	rm -rf results-quick
