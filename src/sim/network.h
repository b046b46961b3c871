#pragma once

#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "common/status.h"
#include "sim/completion_queue.h"
#include "sim/fault.h"
#include "sim/resource_stats.h"

namespace lakeharbor {
class TimerService;
}  // namespace lakeharbor

namespace lakeharbor::sim {

/// Configuration of the simulated interconnect (the paper: 10 Gbps switch).
struct NetworkOptions {
  /// One-way message latency.
  uint64_t message_latency_us = 50;
  /// Link bandwidth, bytes per second (default 10 Gbps).
  uint64_t bandwidth_bytes_per_sec = 1250ull * 1024 * 1024;
  bool timing_enabled = false;
  double time_scale = 1.0;
  /// Deterministic, seeded fault injection (probabilistic kUnavailable /
  /// kIoError dropped transfers plus latency spikes). Off by default.
  FaultOptions faults;
};

/// A simple full-bisection network model: every cross-node record transfer
/// pays per-message latency plus size/bandwidth. Latency dominates for the
/// small record-sized messages ReDe sends, which matches the fine-grained
/// access pattern the paper targets.
///
/// Like sim::Disk, a transfer is a submission that the timer service ends
/// after its scaled service time; the blocking Transfer submits and waits.
/// Untimed (or below 1 us scaled) a transfer is charged inline. A remote
/// replica of a replicated write pays one transfer before its disk write,
/// and the replicas are in flight together, so the write costs its slowest
/// replica; they are still submitted in replica order, and the first
/// failure stops the rest (Cluster::ChargeReplicatedWrite).
class Network {
 public:
  /// `timers` ends timed transfers; a Cluster passes its own. A network
  /// built without one owns a timer service.
  explicit Network(NetworkOptions options, TimerService* timers = nullptr);
  ~Network();
  LH_DISALLOW_COPY_AND_ASSIGN(Network);

  /// Model moving `bytes` between two distinct nodes. Fault injection may
  /// fail the transfer (a dropped/timed-out message).
  Status Transfer(size_t bytes);

  /// Async analogue of Transfer: never blocks, delivers `(tag, Status)` on
  /// `cq` after the modeled (scaled) transfer time. The fault decision is
  /// drawn at submission, counters are charged at completion. The
  /// full-bisection model has no concurrency limit, so transfers never
  /// queue behind each other.
  void SubmitTransfer(size_t bytes, uint64_t tag, CompletionQueue* cq);

  /// Install new probabilistic fault knobs at runtime and rewind the
  /// deterministic fault stream.
  void ConfigureFaults(const FaultOptions& faults) {
    injector_.Configure(faults);
  }

  /// Interconnect-wide outage: every transfer fails with kUnavailable.
  void SetOutage(bool down) { injector_.SetOutage(down); }
  bool in_outage() const { return injector_.outage(); }

  const ResourceStats& stats() const { return stats_; }
  ResourceStats& mutable_stats() { return stats_; }
  const NetworkOptions& options() const { return options_; }

  /// Toggle timing simulation at runtime (counters always run).
  void SetTimingEnabled(bool enabled) { options_.timing_enabled = enabled; }

 private:
  /// Draw a transfer's fate and return its modeled service time.
  Status Assess(size_t bytes, double* service_us);
  bool Timed(double service_us) const {
    return options_.timing_enabled &&
           service_us * options_.time_scale >= 1.0;
  }
  void Charge(size_t bytes, double service_us);

  NetworkOptions options_;
  ResourceStats stats_;
  FaultInjector injector_;
  TimerService* timers_ = nullptr;
  /// Declared last so it is destroyed first (see sim::Disk).
  std::unique_ptr<TimerService> own_timers_;
};

}  // namespace lakeharbor::sim
