#!/bin/sh
# CI gate. What each step protects (per-PR history is in CHANGES.md):
#
#   gofmt / vet / build       the tree is formatted, vets clean and compiles.
#   GOARCH=arm64 go vet       the arm64 build still type-checks and vets (no
#                             test runs there: arm64 fuses a*b+c in the render
#                             and display kernels, so the playback pins and
#                             goldens hold on amd64 only; DESIGN.md).
#   arm64 FMA check           no fused multiply-add in the arm64 assembly of
#                             package codec, of frame.(*Frame).bilinear (the
#                             half-pel predictor), or of the playback decision:
#                             the geom products under every FOV check and
#                             track choice (Dot, Angle, Apply, Mul, Matrix,
#                             Forward, AngularDistance), sas's rules and the
#                             client's decision step. Every product there is
#                             written float64(a*b), so a segment decodes to the
#                             same pixels, and a session makes the same hits
#                             and choices, on every CPU architecture.
#   go test -race -shuffle    every package's tests, race-clean and free of
#                             inter-test ordering dependencies: the band
#                             driver behind every renderer, ingest fan-out,
#                             the cache core, prefetcher, telemetry, admission.
#   -count repeats            the cache core under -race, and two tests that
#                             were once flaky stay de-flaked.
#   telemetry bench smoke     the disabled-path overhead benchmarks still run.
#   fuzz smokes (5 s each)    every decoder of outside input (segment
#                             container, manifest, FOV metadata, payload
#                             address, head-trace CSV, tile envelope, chaos
#                             scenario, whole codec segments through one
#                             reused decoder), the player on a
#                             fuzzed manifest (FuzzPlayManifest: resilient,
#                             tiled on and off, every payload missing), and
#                             the differential fuzz over the render family
#                             (pt / ptlut / pte pixel identities at
#                             random dims and worker counts), and the
#                             encoder's forward DCT against the dense
#                             oracle bit for bit (FuzzFDCT).
#   FuzzRangeCoder (5 s)      the frame-body range coder: any script of context
#                             bins, bypass runs and exp-Golomb values decodes
#                             back exactly from a body equal to the reference
#                             encoder's, and arbitrary bytes under any script
#                             never panic and are refused exactly when the
#                             reference decoder refuses them (bins past the
#                             3-byte slack, bytes left over, a code the
#                             encoder cannot write).
#   FuzzRouterMatchesService  the cluster router answers any method and path
#     (5 s)                   (payload kinds, 404, 400, the live 425 and stamped
#                             200, a saturated shard's 503) with the status,
#                             body and headers a single Service over the same
#                             store sends, X-Evr-Edge aside: the in-process
#                             shard answer drops no header and copies no byte.
#   FuzzFixedOps (5 s)        the raw-integer fixed-point core equals the
#                             reference arithmetic bit for bit, every op, for
#                             random formats and operands at the path
#                             boundaries (0, ±2³¹, both saturation bounds).
#   FuzzScaler (5 s)          display.Scaler equals the per-pixel scale byte for
#                             byte at random source and target sizes.
#   FuzzHitWarp (5 s)         display.Warp, the FOV-hit rotation warp, writes
#                             every pixel and stays within 8 levels of the float
#                             per-pixel homography at random sizes and poses
#                             inside the hit tolerance.
#   FuzzToPlaneRow (5 s)      projection.ToPlaneRow, the row form the float pt
#                             kernel and the LUT build map through in passes,
#                             equals per-element ToPlane bit for bit (NaNs
#                             included) for every projection, on random rows
#                             holding one fuzzed direction (±0, NaN, ±Inf,
#                             subnormal squares).
#   FuzzRasterMatchesColorAt  scene.Raster, the ingest renderer that maps each
#     (5 s)                   pixel once and tests caps by dot product, equals
#                             the per-direction ColorAt byte for byte at random
#                             videos, times and sizes in every projection, and
#                             Instant.Color equals it along directions seeded
#                             within 1e-12 rad of every cap and rim boundary
#                             (the guard-band path).
#   FuzzStoreReadFrom (5 s)   store.ReadFrom against an in-memory reference
#                             reader, seeded with a small ingest's snapshot:
#                             any input errors or loads a store whose snapshot
#                             reads back equal, and a failure keeps exactly
#                             the records before the failing one.
#   kernel benchmarks         display Scaler.Apply and Warp.Apply (one hit
#                             frame), delivery Assemble and the pt row
#                             kernel at the gated benchmark's geometry, and the
#                             ptlut arms at 1080p (its exact arm must equal pt),
#                             one iteration each, so they cannot rot; beside
#                             them the HAR kernels: the decode kernel (one
#                             30-frame RS segment at 320×160 through one
#                             reused codec.Decoder) and the encode kernel
#                             (the same segment at ingest's codec settings,
#                             one encoder per segment), the PTE datapath per
#                             output pixel at the same geometry, and the
#                             fixed-point CORDIC Atan2; and the serving tier's
#                             routed request (an edge hit and a shard forward
#                             through Cluster.Handler, with allocations).
#   root benchmarks           the root package's micro-benchmarks (head-trace
#                             synthesis, capture stitch, SSIM, detection, the
#                             capped streaming Timeline), one iteration each,
#                             so they cannot rot either.
#   evrconform -fast, full    renderers against the committed golden manifest:
#                             byte identities, pte-vs-pt error budgets,
#                             regenerate-and-diff, metamorphic suite
#                             (regenerate with `go run ./cmd/evrconform -update`).
#   evrbench -sport-fast      a latitude-aware pipeline matches flat S-PSNR at
#                             strictly lower modeled energy.
#   evrload -verify-single    routed (2 shards, edge cache, a shard killed) and
#                             tiled auto-policy playback are byte-identical to
#                             a single server.
#   evrload -mode frontier    the delivery sweep (one class re-run per mode
#                             word: orig, fov, tiled, auto) still completes.
#   evrload -chaos ci-smoke   the survival gate, under -race, twice: zero
#                             checksum divergence, SLOs met, and both runs
#                             produce identical fault schedules and checksums.
#   (cd bench && go test)     the benchmark module — nested, so the root
#                             `go test ./...` does not reach it — still
#                             builds against the tree and checks every payload.
#                             It runs last: a failure there (ROADMAP
#                             "Failing": TestSeedDeterminism's serve_zipf leg)
#                             still fails the script, but no longer stops every
#                             gate above it from running.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build -gcflags=-S ./internal/codec ./internal/frame ./internal/geom ./internal/sas ./internal/client 2>&1 | awk '
	BEGIN {
		n = split("frame.(*Frame).bilinear geom.Vec3.Dot geom.Vec3.Angle geom.Mat3.Apply geom.Mat3.Mul geom.Orientation.Matrix geom.Orientation.Forward geom.Orientation.AngularDistance sas.ChooseTrack sas.Tolerance sas.Hit client.(*decision).segment client.(*decision).frame", names, " ")
		for (i = 1; i <= n; i++) checked["evr/internal/" names[i]] = 1
	}
	/^[^\t]/ { fn = $1; if (fn in checked) seen[fn] = 1 }
	/\tFN?M(ADD|SUB)D\t/ && (fn ~ /^evr\/internal\/codec\./ || (fn in checked)) { print "fused multiply-add in " fn ":" $0; bad = 1 }
	END {
		for (fn in checked) if (!(fn in seen)) { print "not in the arm64 listing: " fn; bad = 1 }
		exit bad
	}'
go build ./...
go test -race -shuffle=on ./...
go test -race -count=5 ./internal/cache
go test -count=20 -run 'TestLiveBackpressure|TestSingleflightCoalesces' ./internal/server ./internal/cache
go test ./internal/telemetry -run=NONE -bench=TelemetryOverhead -benchtime=1x
go test ./internal/server -run='^$' -fuzz=FuzzUnmarshalBitstream -fuzztime=5s
go test ./internal/server -run='^$' -fuzz=FuzzManifestJSON -fuzztime=5s
go test ./internal/server -run='^$' -fuzz=FuzzUnmarshalFrameMeta -fuzztime=5s
go test ./internal/server -run='^$' -fuzz=FuzzParseRefPath -fuzztime=5s
go test ./internal/client -run='^$' -fuzz=FuzzPlayManifest -fuzztime=5s
go test ./internal/headtrace -run='^$' -fuzz=FuzzHeadtraceCSV -fuzztime=5s
go test ./internal/delivery -run='^$' -fuzz=FuzzUnmarshalTile -fuzztime=5s
go test ./internal/chaos -run='^$' -fuzz=FuzzChaosScenario -fuzztime=5s
go test ./internal/codec -run='^$' -fuzz=FuzzDecode -fuzztime=5s
go test ./internal/codec -run='^$' -fuzz=FuzzFDCT -fuzztime=5s
go test ./internal/codec -run='^$' -fuzz=FuzzRangeCoder -fuzztime=5s
go test ./internal/conformance -run='^$' -fuzz=FuzzRenderFamily -fuzztime=5s
go test ./internal/cluster -run='^$' -fuzz=FuzzRouterMatchesService -fuzztime=5s
go test ./internal/fixed -run='^$' -fuzz=FuzzFixedOps -fuzztime=5s
go test ./internal/display -run='^$' -fuzz=FuzzScaler -fuzztime=5s
go test ./internal/display -run='^$' -fuzz=FuzzHitWarp -fuzztime=5s
go test ./internal/projection -run='^$' -fuzz=FuzzToPlaneRow -fuzztime=5s
go test ./internal/scene -run='^$' -fuzz=FuzzRasterMatchesColorAt -fuzztime=5s
go test ./internal/store -run='^$' -fuzz=FuzzStoreReadFrom -fuzztime=5s
go test ./internal/display -run='^$' -bench='^BenchmarkScale$' -benchtime=1x
go test ./internal/display -run='^$' -bench='^BenchmarkHitWarp$' -benchtime=1x
go test ./internal/codec -run='^$' -bench='^BenchmarkDecodeSegment$' -benchtime=1x
go test ./internal/codec -run='^$' -bench='^BenchmarkEncodeSegment$' -benchtime=1x
go test ./internal/pte -run='^$' -bench='^BenchmarkPixel$' -benchtime=1x
go test ./internal/fixed -run='^$' -bench='^BenchmarkAtan2$' -benchtime=1x
go test ./internal/delivery -run='^$' -bench='^BenchmarkAssemble$' -benchtime=1x
go test ./internal/pt -run='^$' -bench='^BenchmarkRenderRows$' -benchtime=1x
go test ./internal/ptlut -run='^$' -bench='^BenchmarkRender$' -benchtime=1x
go test ./internal/cluster -run='^$' -bench='^BenchmarkRoutedRequest$' -benchtime=1x
go test . -run='^$' -bench=. -benchtime=1x
go run ./cmd/evrconform -fast
go run ./cmd/evrconform
go run ./cmd/evrbench -sport-fast
go run ./cmd/evrload -shards 2 -zipf 1.1 -zipf-videos 2 -users 8 -passes 2 \
    -segments 1 -width 96 -viewport-scale 32 -kill-shard 0 -kill-pass 2 -verify-single
go run ./cmd/evrload -shards 2 -users 6 -passes 1 -segments 2 -width 96 \
    -viewport-scale 32 -mode auto -verify-single
go run ./cmd/evrload -mode frontier -users 2 -segments 1 -width 96 -viewport-scale 32
go run -race ./cmd/evrload -chaos ci-smoke -chaos-runs 2
(cd bench && go test ./...)
