#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/macros.h"
#include "obs/chrome_trace.h"
#include "rede/engine.h"
#include "sim/cluster.h"

/// \file bench_util.h
/// Shared setup for the figure-reproduction harnesses. The cluster model
/// scales the paper's testbed (128 nodes, 24-HDD RAID per node, 10 GbE)
/// down to laptop size while keeping the ratio that drives Fig 7: deep
/// device queues make random reads cheap *in aggregate* relative to full
/// scans, until random-read volume grows past the scan cost.

namespace lakeharbor::bench {

struct BenchClusterConfig {
  uint32_t num_nodes = 8;
  size_t io_slots = 24;                ///< spindle-level parallelism per node
  uint64_t random_read_latency_us = 500;
  uint64_t scan_bandwidth_bytes_per_sec = 5ull * 1024 * 1024 / 2;
  uint64_t network_latency_us = 30;
};

inline sim::ClusterOptions MakeClusterOptions(const BenchClusterConfig& c) {
  sim::ClusterOptions options;
  options.num_nodes = c.num_nodes;
  options.disk.io_slots = c.io_slots;
  options.disk.random_read_latency_us = c.random_read_latency_us;
  options.disk.scan_bandwidth_bytes_per_sec = c.scan_bandwidth_bytes_per_sec;
  options.disk.scan_chunk_bytes = 256 * 1024;
  options.network.message_latency_us = c.network_latency_us;
  // Timing stays off for loading; benches flip it on for measured phases.
  options.EnableTiming(false);
  return options;
}

/// Environment-variable override for quick experiments, e.g.
/// LH_BENCH_NODES=16 ./build/bench/fig7_tpch_q5
inline double EnvOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

/// A bench's JSON ledger: `default_path` (a committed BENCH_*.json), or
/// LH_BENCH_OUT when set. Rows go to a temporary file beside it, and only
/// Commit() — called on the exit-0 path — renames that over the ledger, so
/// a run that aborts or fails a gate leaves the committed file as it was.
class Ledger {
 public:
  explicit Ledger(const char* default_path) {
    const char* env = std::getenv("LH_BENCH_OUT");
    path_ = env != nullptr ? env : default_path;
    tmp_path_ = path_ + ".tmp";
    file_ = std::fopen(tmp_path_.c_str(), "w");
    LH_CHECK_MSG(file_ != nullptr, ("cannot open " + tmp_path_).c_str());
  }
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  ~Ledger() {
    if (file_ == nullptr) return;
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }

  /// Appends one JSON row.
  void Add(const std::string& line) {
    std::fprintf(file_, "%s\n", line.c_str());
  }

  /// Replaces the ledger with the rows added so far.
  void Commit() {
    LH_CHECK_MSG(std::fclose(file_) == 0,
                 ("cannot write " + tmp_path_).c_str());
    file_ = nullptr;
    LH_CHECK_MSG(std::rename(tmp_path_.c_str(), path_.c_str()) == 0,
                 ("cannot replace " + path_).c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  FILE* file_ = nullptr;
};

inline void PrintHeader(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Opt-in trace capture for the figure/ablation harnesses.
///
///   ./build/bench/fig7_tpch_q5 --trace-out=/tmp/q5.trace.json
///   LH_TRACE_OUT=/tmp/q5.trace.json ./build/bench/ablation_batch_cache
///
/// When the flag (or LH_TRACE_OUT) is absent, sample_n() is 0 and the
/// harness runs exactly as before — tracing stays off and published numbers
/// are unaffected. When present, the harness plugs sample_n() into
/// SmpeOptions::trace_sample_n, feeds each result to Observe(), and the
/// destructor writes the LAST traced run's Chrome trace_event JSON to the
/// given path (load it at chrome://tracing or ui.perfetto.dev) plus its
/// text JobProfile to stdout.
class TraceCapture {
 public:
  TraceCapture(int argc, char** argv) {
    constexpr const char* kFlag = "--trace-out=";
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
        path_ = argv[i] + std::strlen(kFlag);
      }
    }
    if (path_.empty()) {
      const char* env = std::getenv("LH_TRACE_OUT");
      if (env != nullptr) path_ = env;
    }
  }

  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  ~TraceCapture() { Finish(); }

  bool enabled() const { return !path_.empty(); }

  /// Value for SmpeOptions::trace_sample_n (and the partitioned executor's
  /// trace_sample_n): trace every job while capturing, nothing otherwise.
  uint64_t sample_n() const { return enabled() ? 1 : 0; }

  /// Keep the latest traced run; `label` names the bench cell it came from.
  void Observe(const rede::JobResult& result, std::string label = "") {
    if (!enabled() || result.trace == nullptr) return;
    last_ = result;
    label_ = std::move(label);
  }
  void Observe(const rede::CollectedResult& result, std::string label = "") {
    rede::JobResult as_job;
    as_job.metrics = result.metrics;
    as_job.trace = result.trace;
    Observe(as_job, std::move(label));
  }

  /// Write the captured trace (idempotent; also run by the destructor).
  void Finish() {
    if (!enabled() || last_.trace == nullptr || finished_) return;
    finished_ = true;
    std::printf("\n-- trace capture (%s) --\n",
                label_.empty() ? "last traced run" : label_.c_str());
    std::printf("%s", rede::ProfileOf(last_).ToText().c_str());
    Status status = obs::WriteChromeTraceFile(*last_.trace, path_);
    if (status.ok()) {
      std::printf("chrome trace written to %s (open at chrome://tracing)\n",
                  path_.c_str());
    } else {
      std::printf("trace write FAILED: %s\n", status.ToString().c_str());
    }
  }

 private:
  std::string path_;
  std::string label_;
  rede::JobResult last_;
  bool finished_ = false;
};

}  // namespace lakeharbor::bench
