GO ?= go

.PHONY: build fmt test vet race purego check chaos heatmap

build:
	$(GO) build ./...

# fmt fails, naming the files, if anything in the tree is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# The run cache reads its entries through package syscall, whose types
# differ by OS, so internal/core is also vetted for darwin and windows.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/core
	GOOS=windows $(GO) vet ./internal/core

test:
	$(GO) test ./...

# The simulator and the sweep layer are the concurrency-sensitive packages:
# sweeps run many single-threaded simulations in parallel and share the
# run cache, so they get a dedicated race-detector pass. The fault and
# transport layers ride along: chaos sweeps drive them from the same pool,
# and so do three applications: Water's memoized tables are shared by
# concurrent cells, Barnes-Hut's scratch and ASP's broadcast rows by ranks.
# The analytic evaluator's clones share one graph, batch program and
# matched streams across the concurrent tasks of a matched solve. The
# wide-area graphs, regimes and collectives are the packages CI's topology
# and regime jobs also race.
race:
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/faults/... ./internal/par/... \
		./internal/analytic ./internal/apps/asp ./internal/apps/barneshut ./internal/apps/water \
		./internal/wantopo ./internal/regime ./internal/collective

# ASP's row relaxation and the analytic walk's lane kernels are assembly on
# amd64; purego builds the portable Go bodies (what -race and other
# architectures get), which must reproduce the same goldens and the same
# analytic answers.
purego:
	$(GO) test -count=1 -tags purego ./internal/apps/asp ./internal/analytic
	$(GO) test -count=1 -tags purego -run 'TestGoldenDeterminism$$|TestFigure3AnalyticMatchesPointOracle' ./internal/core

# The core budget runs one cell per GOMAXPROCS slot, not one per CPU, and
# on one slot a whole sweep runs on one worker.
check: build fmt vet test race purego
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestBudget|TestForEach' ./internal/core

# heatmap regenerates results/heatmap.csv: the 64x64 per-variant analytic
# sensitivity lattice at Small scale (deterministic; byte-identical across
# reruns, recordings shared through the run cache).
heatmap:
	$(GO) run ./cmd/figures -heatmap -scale small > results/heatmap.csv

# chaos regenerates results/chaos.csv: the fault-injection sensitivity
# sweep at paper scale (deterministic). Every finished cell lands in the
# run cache, so running `make chaos` again after an interruption
# re-simulates only the missing cells.
chaos:
	$(GO) run ./cmd/chaos -o results/chaos.csv
