#!/usr/bin/env bash
# CI entry point. Runs the repo's verification legs; each leg uses its own
# build tree so they can run independently or all in sequence.
#
#   scripts/ci.sh             # all legs, tier-1 first
#   scripts/ci.sh tier1       # configure + build + full ctest (the gate)
#   scripts/ci.sh release     # Release build + smoke-labeled benches + ctest
#   scripts/ci.sh tsan        # ThreadSanitizer leg: concurrency-prone suites
#   scripts/ci.sh simd        # SIMD matrix: -msse4.1, scalar-only, ASan/UBSan
#   scripts/ci.sh perfbench   # benchmark harness tests + a short traced serve run
#
# ctest labels (tests/CMakeLists.txt, bench/CMakeLists.txt) slice the suite:
# unit, query, server, smoke.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

tier1() {
  echo "== tier1: RelWithDebInfo build + full test suite =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS" --timeout 120
}

release() {
  echo "== release: -O2 build, full ctest, bench smoke legs =="
  cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-rel -j"$JOBS"
  # Optimizer-dependent bugs (UB, uninitialized reads) only surface at -O2.
  ctest --test-dir build-rel --output-on-failure -j"$JOBS" --timeout 120
  # End-to-end bench smokes: server pipeline (single-node, the 4-node
  # sharded-cluster variant with its scale-out determinism check, and the
  # E10 live ingest->serve leg with its live-vs-offline catalog byte-
  # identity check) and query pruned-vs-naive byte-identity (also part of
  # ctest, but run serially here for timing).
  ctest --test-dir build-rel --output-on-failure -L smoke --timeout 600
}

tsan() {
  echo "== tsan: ThreadSanitizer on the concurrency-prone suites =="
  cmake -B build-tsan -S . -DVC_SANITIZE=thread
  cmake --build build-tsan -j"$JOBS" \
    --target server_test storage_test query_test obs_test common_test
  # Where races would live: the single-flight cache loader, the one read
  # path every cell read takes (including oversize rejection and prefetch
  # attribution under concurrency), the planned-read hit runs under the
  # cache lock (storage_test's
  # PlannedReadTest.ConcurrentPlannedReadsOverAHalfSizeCache: 8 readers
  # over a cache holding half the working set), the
  # tiered L1/L2 path through the sharded store, the prefetcher, the
  # multi-session server scheduler, the query executor's batched async cell
  # fetches, and the sharded metrics registry.
  for t in server_test storage_test query_test obs_test common_test; do
    echo "-- tsan: $t"
    ./build-tsan/tests/"$t"
  done
  # Reads on the caller's thread and reads on the I/O pool share that one
  # single-flight core, so its suites run again, repeated, for more
  # interleavings.
  echo "-- tsan: storage_test (cache, tiers, planned reads) x20"
  ./build-tsan/tests/storage_test \
    --gtest_filter='LruCache*:TieredCache*:PlannedRead*' --gtest_repeat=20
  # The in-memory catalog version set: four readers against a live session
  # that commits a checkpoint per segment.
  cmake --build build-tsan -j"$JOBS" --target core_test
  echo "-- tsan: core_test (LiveCatalogTest)"
  ./build-tsan/tests/core_test --gtest_filter='LiveCatalogTest.*'
  # Ingest lends encoders to cell tasks from a mutex-guarded free list, and
  # the task that finishes a tile's reference rung submits that tile's
  # hinted rungs: the ingest tests and the encoder-reuse suite (1, 2 and 4
  # encode threads), repeated for more interleavings.
  echo "-- tsan: core_test (ingest, encoder reuse) x5"
  ./build-tsan/tests/core_test \
    --gtest_filter='CoreTest.*Ingest*:IngestReuseTest.*' --gtest_repeat=5
  # View maintenance runs the executor's async cell path from catalog
  # commits; its fetched cells borrow the cache's bytes while other
  # readers evict them.
  cmake --build build-tsan -j"$JOBS" --target view_test
  echo "-- tsan: view_test"
  ./build-tsan/tests/view_test
  # The prefetcher warms each session's own plan on the I/O pool while the
  # scheduler steps sessions: the async-pipeline and prefetch server runs,
  # and the prefetcher's queue tests, repeated for more interleavings.
  echo "-- tsan: server_test (async pipeline, prefetch) x10"
  ./build-tsan/tests/server_test \
    --gtest_filter='*AsyncPipeline*:*Prefetch*' --gtest_repeat=10
  echo "-- tsan: storage_test (prefetcher) x10"
  ./build-tsan/tests/storage_test --gtest_filter='*Prefetcher*' \
    --gtest_repeat=10
}

simd() {
  echo "== simd: cross-ISA bit-exactness + memory-safety matrix =="
  # Leg 1: widened baseline ISA (-msse4.1). The transform stage pairs have
  # a plain C++ scalar body and AVX2 16-bit-pair kernels; the codec suite
  # proves the host's vector paths (those kernels, at the edges of their
  # 16-bit lanes, and the SSE2 SAD/residual kernels on x86) produce blocks
  # and streams bit-identical to scalar, and the kernel micro-bench smoke
  # re-verifies kernel-level agreement plus the Exp-Golomb round-trip. The
  # pinned ingest digest checks whole-segment encoder output bytes.
  cmake -B build-sse41 -S . -DCMAKE_CXX_FLAGS=-msse4.1
  cmake --build build-sse41 -j"$JOBS" --target codec_test codec_fuzz_test \
    common_test core_test bench_kernels
  ./build-sse41/tests/codec_test
  ./build-sse41/tests/codec_fuzz_test
  ./build-sse41/tests/common_test
  ./build-sse41/tests/core_test \
    --gtest_filter=CoreTest.IngestOutputDigestIsPinned
  ./build-sse41/bench/bench_kernels --smoke

  # Leg 2: scalar-only build (-DVC_DISABLE_SIMD=ON removes every intrinsics
  # path, the AVX2 transform kernels included, at compile time). The same
  # codec suite passing here pins the scalar fallbacks as the reference the
  # vector paths are measured against; the common suite re-checks the
  # windowed bit reader, the word writer and the sliced CRC against their
  # bit- and byte-at-a-time references in this configuration too, and the
  # pinned ingest digest holds with the scalar transform and quantizer. The
  # kernel micro-bench smoke checks the scalar stage pairs
  # (transform+quantize, dequantize+inverse) against their stages run one
  # after the other.
  cmake -B build-scalar -S . -DVC_DISABLE_SIMD=ON
  cmake --build build-scalar -j"$JOBS" --target codec_test codec_fuzz_test \
    common_test core_test bench_kernels
  ./build-scalar/tests/codec_test
  ./build-scalar/tests/codec_fuzz_test
  ./build-scalar/tests/common_test
  ./build-scalar/tests/core_test \
    --gtest_filter=CoreTest.IngestOutputDigestIsPinned
  ./build-scalar/bench/bench_kernels --smoke

  # Leg 3: ASan + UBSan over the deterministic fuzz corpora — the codec
  # bitstream (truncated and bit-flipped streams), the VCMPD manifest
  # parser, the VCMF container box walker, the
  # query text parser (truncations, token surgery, integer-overflow
  # arguments), and the VCVIEW materialized-view definition parser — plus
  # the kernel/bit-IO suites and the kernel micro-bench smoke. Out-of-bounds
  # reads in any decoder, the bit reader's 8-byte window loads near the end
  # of a slice, the CRC's 8-byte steps and misaligned vector loads fail
  # loudly here. The geometry, predict and
  # core suites cover the session step's index arithmetic: the head-trace
  # cursor, the wrapped viewport column spans and the budget-fitting
  # cursor. The storage suite parses on-disk catalog names and listings
  # (and destroys a store before its writers), and the streaming suite
  # covers the network model's transfer arithmetic. The query and view
  # suites run the executor's stitch/smart-cut slices and view maintenance
  # over per-tile QP frames. The server suite runs sessions that borrow
  # their video metadata and head trace from the caller, so a session that
  # outlives either reads freed memory here. The allocation test encodes
  # cells from views into the segment frames on reused encoders and
  # writers, so a view or a reused buffer read past its end fails here.
  cmake -B build-asan -S . -DVC_SANITIZE=address+undefined
  cmake --build build-asan -j"$JOBS" --target codec_fuzz_test codec_test \
    common_test manifest_fuzz_test container_fuzz_test query_fuzz_test \
    view_fuzz_test geometry_test predict_test core_test storage_test \
    streaming_test query_test view_test server_test bench_kernels \
    ingest_alloc_test
  ./build-asan/tests/codec_fuzz_test
  ./build-asan/tests/codec_test
  ./build-asan/tests/common_test
  ./build-asan/tests/manifest_fuzz_test
  ./build-asan/tests/container_fuzz_test
  ./build-asan/tests/query_fuzz_test
  ./build-asan/tests/view_fuzz_test
  ./build-asan/tests/geometry_test
  ./build-asan/tests/predict_test
  ./build-asan/tests/core_test
  ./build-asan/tests/storage_test
  ./build-asan/tests/streaming_test
  ./build-asan/tests/query_test
  ./build-asan/tests/view_test
  ./build-asan/tests/server_test
  ./build-asan/tests/ingest_alloc_test
  ./build-asan/bench/bench_kernels --smoke
}

perfbench() {
  echo "== perfbench: harness tests + a traced serve run =="
  # The benchmark drives StreamingServer::Run with a CellSource decorator
  # installed through SessionOptions::cell_source; this leg guards that
  # facade and decorator contract. It shares run.py's build tree.
  cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build -j"$JOBS" --target perfbench_tests
  ./.bench_build/perfbench_tests
  python3 perfbench/run.py --workload serve --seed 1 --seconds 3 --trace 1 |
    tail -n 1 |
    python3 -c '
import json, sys
result = json.load(sys.stdin)
print("perfbench serve: correct=%s failed=%s" % (result["correct"], result["failed"]))
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)'
}

case "${1:-all}" in
  tier1)   tier1 ;;
  release) release ;;
  tsan)    tsan ;;
  simd)    simd ;;
  perfbench) perfbench ;;
  all)     tier1; release; tsan; simd; perfbench ;;
  *)
    echo "usage: scripts/ci.sh [tier1|release|tsan|simd|perfbench|all]" >&2
    exit 2
    ;;
esac
