#!/usr/bin/env bash
# Build the chaos-labeled test suites (fault injection, deterministic
# scheduling, replica failover / deadlines, multi-tenant job scheduling,
# the async continuation engine, end-to-end record integrity) under
# ThreadSanitizer and run them. The chaos tests exercise every cross-thread
# handoff in the executor stack — outage flips mid-run, hedge races,
# cancellation, queue drains, overlapped runs sharing one record cache
# (sched_test), completion-queue delivery and timer-driven backoff/watchdog
# callbacks racing run finalization (async_executor_test), silent bit-rot
# detection / read-repair under both engines plus the throttled background
# scrubber driving verify/repair jobs through the shared scheduler
# (integrity_test), and streaming ingest: concurrent StreamAppend vs
# epoch folds vs pinned-snapshot reads vs the background merger pump
# (streaming_ingest_test), the one background driver behind the merger,
# scrubber and rebalancer yielding, resubmitting and cancelling its jobs
# (background_test; the background_test_repeated entry runs it 10 times
# over, so the device completions and backoff timers that resume a
# background task race Cancel and job finalization many times per run),
# the lock-free in-flight count and listener-mode
# completion queue racing their destroyers (concurrent_test), and the async
# workers' work-stealing sleep/wake protocol, whose tests the
# async_executor_work_stealing_repeated entry runs 15 times over (a lost
# wake-up hangs it into its timeout), the device timer thread ending the
# waits of blocking device calls, async submissions and the overlapped
# replica legs of a replicated write (sim_test's DeviceQueue.* tests, run
# as the sim_device_queue_timed entry), the io reads, timed and untimed,
# both blocking and submitted on a queue that the test thread drains
# (io_test's *AsyncReads* tests, run as the io_async_reads_timed entry),
# and the timer's wake-up only on a new earliest deadline
# (concurrent_test's TimerService.* test) — so a
# TSan-clean pass is the "zero leaked inflight tasks, no torn state"
# acceptance gate. The obs-labeled
# suite (trace recorder, histograms, profiler) rides along: its lock-free
# thread-local span buffers are exactly the kind of code TSan exists for.
#
# Usage: scripts/run_chaos_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DLH_SANITIZE=thread \
  -DLAKEHARBOR_BUILD_BENCHMARKS=OFF \
  -DLAKEHARBOR_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'chaos|obs'
