#!/bin/sh
# CI gate: format check, vet, build, and run the full test suite under the
# race detector (with shuffled test order, so hidden inter-test ordering
# dependencies surface). The parallel render engine (pt.RenderParallel,
# pte.RenderParallel, server ingest fan-out), the cache core
# (internal/cache: the one LRU + singleflight behind the response, edge,
# mapping-table and client segment caches, repeated -count=5 on its own),
# the client prefetcher, the telemetry subsystem (registry/histogram/
# tracer), and the multi-user serving layer (admission control, soaked by
# loadgen's 32-session test) must stay race-clean; every PR runs this
# before merge. The
# benchmark smoke run keeps the telemetry disabled-path overhead benchmarks
# compiling and executable without timing them, and the fuzz smokes give
# the wire-format, manifest, and head-trace CSV fuzzers a short budget
# beyond their checked-in seeds.
#
# The conformance gates pin the render implementations against the
# committed golden manifest: the fast subset first (quick signal), then the
# full corpus with the regenerate-and-diff byte-identity check and the
# metamorphic property suite (see internal/conformance and cmd/evrconform;
# regenerate goldens with `go run ./cmd/evrconform -update`). Since PR 6
# every conformance case also renders through the exact-mode mapping-LUT
# cache (internal/ptlut) and must stay byte-identical to the float
# reference, so the fast gate doubles as the LUT quick gate.
#
# The LUT benchmark smoke exercises `evrbench -lut` end to end at a small
# size — measure, write JSON, schema-check it — then schema-checks the
# committed full-size BENCH_evrbench.json artifact (regenerate it with
# `go run ./cmd/evrbench -lut`).
#
# The routed-path smoke (PR 7) drives the sharded serving tier end to
# end: 2 shards behind the consistent-hash router with an edge cache,
# Zipf video popularity, shard 0 killed at pass 2, and -verify-single as
# the checksum gate — the run fails unless every user's displayed frames
# through the router are byte-identical to a single-server replay.
#
# The tiled-delivery smoke (PR 8) adds the viewport-adaptive transport on
# top of the same gate: a tiled ingest served through 2 shards, the mixed
# per-segment policy picking FOV/tiled/orig, and -verify-single again
# requiring routed playback byte-identical to a single server. The tile
# wire format gets the same fuzz budget as the other decoders.
#
# The chaos smoke (PR 9) is the survival gate: the ci-smoke scenario runs
# a live-ingested video plus a mixed-projection VOD fleet (lossy link,
# heterogeneous PTE/cache/delivery profiles) through 2 shards while the
# fault schedule kills and restarts a shard, slows the survivor, holds a
# live publish, and re-ingests a video mid-run — under the race detector,
# twice, with the gate requiring zero checksum divergence, freshness and
# stall SLOs met, and both runs producing identical fault schedules and
# per-user checksums. The scenario JSON codec gets the same fuzz budget
# as the other decoders.
#
# The SPORT gate (PR 10) runs the spherically-weighted rate-control +
# truncation sweep in its CI-sized fast mode: `evrbench -sport-fast`
# exits nonzero unless a latitude-aware pipeline matches the flat
# pipeline's S-PSNR at strictly lower modeled energy under the same byte
# ceiling. The codec rate controller joins the fuzz smokes, and the full
# conformance run now also pins the viewport-weighted S-PSNR column of
# every golden case.
#
# PR 12 changed the codec's P-block syntax (skip flag + coded-block
# pattern), which moves every payload the system stores and serves: the
# codec's frame decoder gets a native fuzz smoke beside the other decoders
# (differential against the reference decoder in reference_test.go), the
# bench/ module — a nested module the root `go test ./...` does not reach,
# and the one that checks every payload end to end — runs its own tests,
# and the two tests de-flaked in that PR are repeated so they stay that way
# (the singleflight gate test now lives in internal/cache).
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race -shuffle=on ./...
(cd bench && go test ./...)
go test -race -count=5 ./internal/cache
go test -count=20 -run 'TestLiveBackpressure|TestSingleflightCoalesces' ./internal/server ./internal/cache
go test ./internal/telemetry -run=NONE -bench=TelemetryOverhead -benchtime=1x
go test ./internal/server -run='^$' -fuzz=FuzzUnmarshalBitstream -fuzztime=5s
go test ./internal/server -run='^$' -fuzz=FuzzManifestJSON -fuzztime=5s
go test ./internal/headtrace -run='^$' -fuzz=FuzzHeadtraceCSV -fuzztime=5s
go test ./internal/delivery -run='^$' -fuzz=FuzzUnmarshalTile -fuzztime=5s
go test ./internal/chaos -run='^$' -fuzz=FuzzChaosScenario -fuzztime=5s
go test ./internal/codec -run='^$' -fuzz=FuzzRateControllerObserve -fuzztime=5s
go test ./internal/codec -run='^$' -fuzz=FuzzDecode -fuzztime=5s
go run ./cmd/evrconform -fast
go run ./cmd/evrconform
go run ./cmd/evrbench -lut -lut-width 256 -lut-frames 2 -users 2 -bench-out "${TMPDIR:-/tmp}/bench_lut_smoke.json"
go run ./cmd/evrbench -bench-check "${TMPDIR:-/tmp}/bench_lut_smoke.json"
go run ./cmd/evrbench -bench-check BENCH_evrbench.json
go run ./cmd/evrbench -sport-fast
go run ./cmd/evrload -shards 2 -zipf 1.1 -zipf-videos 2 -users 8 -passes 2 \
    -segments 1 -width 96 -viewport-scale 32 -kill-shard 0 -kill-pass 2 -verify-single
go run ./cmd/evrload -shards 2 -users 6 -passes 1 -segments 2 -width 96 \
    -viewport-scale 32 -mode mixed -verify-single
go run -race ./cmd/evrload -chaos ci-smoke -chaos-runs 2
