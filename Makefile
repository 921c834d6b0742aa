GO ?= go

.PHONY: build fmt test vet race purego check bench bench-runpath bench-pdes bench-analytic bench-topo chaos chaos-resume heatmap

build:
	$(GO) build ./...

# fmt fails, naming the files, if anything in the tree is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The simulator and the sweep layer are the concurrency-sensitive packages:
# sweeps run many single-threaded simulations in parallel and share the
# run cache, so they get a dedicated race-detector pass. The fault and
# transport layers ride along: chaos sweeps drive them from the same pool,
# and so do the three applications that share state across goroutines
# (memoized tables, pooled scratch, broadcast payloads).
race:
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/faults/... ./internal/par/... \
		./internal/apps/asp ./internal/apps/barneshut ./internal/apps/water

# ASP's row relaxation is assembly on amd64; purego builds the portable Go
# body (what -race and other architectures get), which must reproduce the
# same goldens.
purego:
	$(GO) test -count=1 -tags purego ./internal/apps/asp
	$(GO) test -count=1 -tags purego -run 'TestGoldenDeterminism$$' ./internal/core

check: build fmt vet test race purego

# bench regenerates results/BENCH_kernel.json (median of 5 runs).
bench:
	$(GO) run ./cmd/bench -o results/BENCH_kernel.json -repeat 5

# bench-runpath regenerates results/BENCH_runpath.json: the steady-state
# run path with allocator counters (ns/op, B/op, allocs/op, GC cycles).
# lan_send_recv must report 0 allocs/op.
bench-runpath:
	$(GO) run ./cmd/bench -runpath -o results/BENCH_runpath.json -repeat 5

# bench-pdes regenerates results/BENCH_pdes.json: the cluster-parallel
# engine against the sequential one (2/4/8 in-run workers, cold
# paper-scale suite). Wall numbers scale with the cores the machine
# actually grants; the report pins GOMAXPROCS next to them.
bench-pdes:
	$(GO) run ./cmd/bench -pdes -o results/BENCH_pdes.json -repeat 5

# bench-analytic regenerates results/BENCH_analytic.json: one cold
# simulated Small Figure 3 sweep against the record-once-solve-many
# analytic engine, with per-variant recording cost, per-grid-point solve
# cost and prediction error.
bench-analytic:
	$(GO) run ./cmd/bench -analytic -o results/BENCH_analytic.json -repeat 15

# heatmap regenerates results/heatmap.csv: the 64x64 per-variant analytic
# sensitivity lattice at Small scale (deterministic; byte-identical across
# reruns, recordings shared through the run cache).
heatmap:
	$(GO) run ./cmd/figures -heatmap -scale small > results/heatmap.csv

# bench-topo regenerates results/BENCH_topo.json: simulator throughput and
# peak heap as the cluster count scales 16 -> 256, on the paper's clique
# versus a 2D torus routed hop-by-hop through the wide-area graph.
bench-topo:
	$(GO) run ./cmd/bench -topo -o results/BENCH_topo.json -repeat 5

# chaos regenerates results/chaos.csv: the fault-injection sensitivity
# sweep at paper scale (deterministic; reruns hit the run cache). An
# interrupted run leaves results/chaos.journal; `make chaos-resume`
# picks it up and re-simulates only the missing cells.
chaos:
	$(GO) run ./cmd/chaos -o results/chaos.csv

chaos-resume:
	$(GO) run ./cmd/chaos -o results/chaos.csv -resume
