#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "obs/span.h"

/// \file trace.h
/// Per-job trace recording. One TraceRecorder exists per *traced* run (see
/// SmpeOptions::trace_sample_n); when tracing is off no recorder exists and
/// the executors' fast path is a null-pointer check — zero spans, zero
/// allocations (TraceCounters lets tests assert exactly that).
///
/// Recording is lock-free on the hot path: each recording thread owns a
/// chunked span buffer registered with the recorder on first use (one
/// mutex acquisition per thread per chunk, amortized over kChunkSpans
/// appends). Appends are plain stores — the owning thread is the only
/// writer, and Collect() runs only after the executor has quiesced the run
/// (in-flight tracker at zero), which establishes the happens-before edge
/// for every chunk write.

namespace lakeharbor::obs {

/// Process-wide observability counters, for overhead assertions: a run with
/// tracing disabled must not move either of them.
struct TraceCounters {
  static uint64_t SpansRecorded();
  static uint64_t ChunksAllocated();
};

/// Process-wide monotonically increasing job id, shared by every executor
/// so concurrent runs (even across executors) are distinguishable in
/// metrics and traces.
uint64_t NextJobId();

/// The collected trace of one job run, attached to JobResult.
struct TraceLog {
  uint64_t job_id = 0;
  std::string job_name;
  std::string executor;
  std::vector<Span> spans;  ///< sorted by t_start_us
};

class TraceRecorder {
 public:
  explicit TraceRecorder(uint64_t job_id);
  ~TraceRecorder();
  LH_DISALLOW_COPY_AND_ASSIGN(TraceRecorder);

  uint64_t job_id() const { return job_id_; }

  /// Append one span to the calling thread's buffer. `span.thread` is
  /// overwritten with the recorder's dense thread index.
  void Record(Span span);

  /// Gather every recorded span, sorted by start time. Only call after the
  /// run has quiesced (no thread can still be recording).
  std::vector<Span> Collect();

  uint64_t spans_recorded() const;

  struct Chunk;

 private:
  Chunk* RegisterChunk(uint32_t thread_index, bool new_thread);

  const uint64_t epoch_;   ///< process-unique; keys thread-local caching
  const uint64_t job_id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint32_t next_thread_ = 0;
};

}  // namespace lakeharbor::obs
