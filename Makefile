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

# Benchmark trajectory point (checked into the repo root): the
# compiled-policy fast-path comparison, the scaling, ring, and cluster
# sweeps, the differential probe and forced-migration sweeps, the
# open-loop latency sweep, and the warm-enclosure churn sweep, as
# machine-readable JSON.
bench:
	$(GO) run ./cmd/enclosebench -trajectory BENCH_10.json

# Host-side Go micro-benchmarks (not checked in).
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
