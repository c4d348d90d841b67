# Enclosure reproduction — common targets.

GO ?= go

.PHONY: all build vet test race bench gobench tables scale cluster latency security examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark trajectory point, checked into the repo root as a new
# BENCH_N.json (`make bench N=11`): the scaling, ring, and cluster
# sweeps, the differential probe and forced-migration sweeps, and the
# open-loop latency sweep, as machine-readable JSON. Every section but
# the cluster's is virtual time and reads the same on every run. N is
# required and the file must not exist yet: earlier points carry
# sections later ones dropped (BENCH_10.json's churn), so none is
# overwritten.
bench:
	@test -n "$(N)" || { echo "usage: make bench N=<number of the new BENCH_N.json>" >&2; exit 2; }
	@test ! -e BENCH_$(N).json || { echo "BENCH_$(N).json exists; pick a new N" >&2; exit 2; }
	$(GO) run ./cmd/enclosebench -trajectory BENCH_$(N).json

# Host-side Go micro-benchmarks (not checked in). The simulator's own
# host-wall costs, sampled: go test ./internal/bench/ -run '^$' -bench Host -count 5
gobench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation (§6).
tables:
	$(GO) run ./cmd/enclosebench -all

# Multi-core engine scaling sweep (apps × backends × 1/2/4/8 workers).
scale:
	$(GO) run ./cmd/enclosebench -table scale

# Multi-node cluster scaling sweep (apps × backends × 1/2/4/8 nodes)
# plus the forced-migration digest sweep.
cluster:
	$(GO) run ./cmd/enclosebench -table cluster

# Open-loop latency sweep: coordinated-omission-free p50/p99/p99.9 and
# shed rate per backend × worker count × offered load.
latency:
	$(GO) run ./cmd/enclosebench -table latency

security:
	$(GO) run ./cmd/enclosebench -table security

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imaging
	$(GO) run ./examples/webserver
	$(GO) run ./examples/wiki
	$(GO) run ./examples/attacks
	$(GO) run ./examples/python
	$(GO) run ./examples/scheduler
	$(GO) run ./examples/dynamic

# Machine-readable full evaluation (CI regression tracking).
results.json:
	$(GO) run ./cmd/enclosebench -json results.json

clean:
	$(GO) clean ./...
