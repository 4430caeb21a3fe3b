GO ?= go

.PHONY: build test race race-soak vet fmt lint loc linked examples fuzz-smoke bench bench-check bench-baseline bench-ratchet serve-demo serve-http cluster-e2e cover check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-soak repeats the race-detected suites of the packages whose locks
# every request takes — the engine's asset store, the admission
# pipeline and the coordinator — SOAK times, so a race or an ordering
# flake that one run misses fails here. The CI test job runs it.
# internal/xsync is soaked with them: its runner (xsync.Go) starts the
# engine's detached flights, the coordinator's sub-batch sends and every
# ForEachN fan-out of those suites, so its hand-off is soaked here too.
SOAK = 5
race-soak:
	$(GO) test -race -count=$(SOAK) ./internal/xsync ./internal/engine ./internal/serve ./internal/cluster

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint is the invariant gate: the in-repo analyzer suite
# (cmd/dlrmperf-lint: hotpath, deterministic, ctxflow,
# and unlinked over the `make linked` listing — see internal/analysis
# and the README "Static analysis" section), plus staticcheck when it
# is installed. The analyzer suite builds from this module with no
# network. The CI lint job runs this target after installing
# staticcheck at a pinned version (see staticcheck.conf), so this recipe
# is the one definition of the lint gate.
lint:
	@set -e; linked=$$(mktemp); trap 'rm -f "$$linked"' EXIT; \
	$(MAKE) -s --no-print-directory linked > "$$linked"; \
	$(GO) run ./cmd/dlrmperf-lint -linked "$$linked" ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it at a pinned version)"; \
	fi

# loc prints the tracked size metric (ROADMAP aim 2): non-blank,
# non-comment, non-test Go lines per package, largest first, with the
# total. Informational — nothing gates on it; a PR quotes its
# before/after.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		n=$$(ls $$dir/*.go | grep -v _test.go | xargs cat | grep -v '^[[:space:]]*//' | grep -v '^[[:space:]]*$$' | wc -l); \
		echo "$$n $$pkg"; \
	done | sort -rn | awk '{ t += $$1; printf "%6d  %s\n", $$1, $$2 } END { printf "%6d  total\n", t }'

# linked prints, one "program symbol" pair a line and sorted, the
# module's function symbols the linker keeps in every program (cmd/*
# and bench). Examples are documentation, not programs: they are not
# roots, so a facade function only an example reaches is unlinked and
# fails lint. Inlining is off so that a function called only at inlined
# sites still shows. A declaration absent from every line is linked by
# no program; diff the output across two commits to check that a
# deletion took no function from any program.
linked:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	pkgs=$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./bench); \
	for pkg in $$pkgs; do \
		$(GO) build -gcflags=all=-l -o "$$tmp/$$(echo $$pkg | tr / _)" $$pkg; \
	done; \
	for pkg in $$pkgs; do \
		$(GO) tool nm "$$tmp/$$(echo $$pkg | tr / _)" | \
			awk -v p=$$pkg '$$2 ~ /^[Tt]$$/ && $$3 ~ /^dlrmperf[.\/]/ { print p, $$3 }'; \
	done | sort -u

# examples runs the facade's two example programs end to end. Each
# calibrates at the serving default (about 50 s per device on one
# core): quickstart one device, newgpu all three. The CI examples job
# runs this target; no test runs an example.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newgpu

# fuzz-smoke runs each native fuzz target for 10 s on top of its
# checked-in corpus (testdata/fuzz in the package): the row codec's
# differential contract against encoding/json, decode and encode, and
# the batch report envelope's decode; the explore grid body (a sweep
# refuses it as too large or visits exactly its size, and decode-
# encode-decode is a fixed point); the overhead database's
# decode-encode-decode fixed point; the engine's asset install (a
# rejected payload installs nothing, an accepted one prices every kind
# it holds and covers every kernel); and the coordinator's peer-apply
# body (a refused one changes no replicated state, an accepted result
# row is a local hit for a request that validates). go test takes one
# -fuzz target per run. The grid corpus holds a 40 KB grid, the
# overhead corpus a whole marshalled database and the asset seeds a
# whole export, whose byte-by-byte minimization would eat the smoke's
# time, so minimization is capped there. The CI test job runs this target.
FUZZ_TIME = 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRowDecode$$' -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRowEncode$$' -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReportDecode$$' -fuzztime $(FUZZ_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGridDecode$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzOverheadLoad$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x ./internal/overhead
	$(GO) test -run '^$$' -fuzz '^FuzzLoadAssets$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzPeerApply$$' -fuzztime $(FUZZ_TIME) ./internal/cluster

# bench regenerates the paper artifacts and tracks the calibration
# speedup pair (serial vs parallel) in the perf trajectory.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-check is the bench-regression gate, locally and in CI (the bench
# job runs this target, so BENCH_PATTERN and BENCH_PKGS below are the
# one definition of the gated set): measure the tracked hot paths, parse
# them into BENCH_pr.json, and compare against the checked-in baseline —
# failing on >10% allocs/op regressions on any box and on >25% ns/op
# regressions on the box shape the baseline records (on another, the
# time excess is printed, not failed). The compare table is kept in
# BENCH_report.txt.
BENCH_PATTERN = PredictSingleCached$$|PredictNovelBatch$$|CalibrateParallel$$|CompilePlan$$|SweepWarm$$|SweepNovel$$|FirstTouch$$|AssetHandoff$$|AssetHandoffShared$$|PoolShared$$|TrimmedSeries$$|SimRun$$|SimProfile$$|RowCodec$$|CoordinatorHit$$|CoordinatorBatchHit$$
BENCH_PKGS = . ./internal/engine ./internal/overhead ./internal/stats ./internal/sim ./internal/serve ./internal/cluster
bench-check:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count 5 $(BENCH_PKGS) | tee BENCH_pr.txt
	$(GO) run ./cmd/benchdiff -parse -in BENCH_pr.txt -o BENCH_pr.json
	@$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json > BENCH_report.txt; \
		st=$$?; cat BENCH_report.txt; exit $$st

# bench-baseline regenerates BENCH_baseline.json from the current tree
# (run on the reference machine after an intentional perf change).
bench-baseline:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count 5 $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -parse -o BENCH_baseline.json

# bench-ratchet tightens the checked-in baseline to the per-metric
# minimum of the baseline and a fresh run. It can only ever keep or
# shrink each bound (a slower run leaves the file untouched), so an
# intentional perf win committed through this target becomes the new
# regression floor that bench-check enforces.
bench-ratchet:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count 5 $(BENCH_PKGS) | tee BENCH_pr.txt
	$(GO) run ./cmd/benchdiff -parse -in BENCH_pr.txt -o BENCH_pr.json
	$(GO) run ./cmd/benchdiff -ratchet -baseline BENCH_baseline.json -current BENCH_pr.json -o BENCH_baseline.json

# serve-demo serves the checked-in mixed single/multi-GPU scenario
# fixture through one engine and prints the JSON report (cache
# counters, per-request scaling efficiency).
serve-demo:
	$(GO) run ./cmd/dlrmperf-serve -in cmd/dlrmperf-serve/testdata/requests.json

# serve-http starts the async HTTP service on :8080 with low-fidelity
# calibration, for interactive poking (curl examples in the README).
serve-http:
	$(GO) run ./cmd/dlrmperf-serve -listen :8080 -fast-calib

# cluster-e2e runs the cross-process sharded-serving suite under the
# race detector: 1 coordinator + 2 self-registering workers, device-
# affine routing, a mid-run worker kill with transparent failover, and
# the aggregated /stats invariant — plus the replicated-control-plane
# scenario (2 peered coordinators + 2 workers: SIGKILL the leader
# mid-run without losing cached results, then SIGKILL a device's home
# worker and require a warm asset hand-off) and a two-tenant load that
# gets shed while the invariant holds. CI runs the same tests inside
# its race-tested go test ./...; this target is for local, verbose use.
cluster-e2e:
	$(GO) test -race -count=1 -run 'TestE2ECluster' -v ./cmd/dlrmperf-serve

# cover is the serving/cluster coverage gate CI enforces: the
# coordinator (internal/cluster), the admission pipeline
# (internal/serve) and the client that reads every refusal back
# (internal/client) must each keep >= 80% statement coverage.
COVER_FLOOR = 80
cover:
	@set -e; for pkg in internal/cluster internal/serve internal/client; do \
		out="cover_$$(basename $$pkg).out"; \
		$(GO) test -coverprofile=$$out ./$$pkg; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 < f) ? 1 : 0 }' \
			|| { echo "$$pkg below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done

check: build vet fmt lint test cover
