#include "sim/network.h"

#include <utility>

#include "concurrent/timer_service.h"

namespace lakeharbor::sim {

Network::Network(NetworkOptions options, TimerService* timers)
    : options_(options), injector_(options.faults), timers_(timers) {
  if (timers_ == nullptr) {
    own_timers_ = std::make_unique<TimerService>();
    timers_ = own_timers_.get();
  }
}

Network::~Network() = default;

Status Network::Assess(size_t bytes, double* service_us) {
  FaultInjector::Decision decision = injector_.Assess("network");
  if (decision.faulted()) {
    stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    return std::move(decision.status);
  }
  if (decision.spiked()) {
    stats_.injected_latency_spikes.fetch_add(1, std::memory_order_relaxed);
  }
  // Modeled (unscaled-by-time_scale) message service time; time_scale only
  // compresses host waits, not the cost model.
  *service_us = (static_cast<double>(options_.message_latency_us) +
                 static_cast<double>(bytes) * 1e6 /
                     static_cast<double>(options_.bandwidth_bytes_per_sec)) *
                decision.latency_scale;
  return Status::OK();
}

void Network::Charge(size_t bytes, double service_us) {
  stats_.network_messages.fetch_add(1, std::memory_order_relaxed);
  stats_.network_bytes.fetch_add(bytes, std::memory_order_relaxed);
  stats_.RecordService(service_us);
}

Status Network::Transfer(size_t bytes) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) { SubmitTransfer(bytes, 0, cq); });
}

void Network::SubmitTransfer(size_t bytes, uint64_t tag, CompletionQueue* cq) {
  double service_us = 0;
  Status fate = Assess(bytes, &service_us);
  if (!fate.ok()) {
    cq->Push(Completion{tag, std::move(fate), ReadOutcome()});
    return;
  }
  if (!Timed(service_us)) {
    Charge(bytes, service_us);
    cq->Push(Completion{tag, Status::OK(), ReadOutcome()});
    return;
  }
  timers_->After(static_cast<uint64_t>(service_us * options_.time_scale),
                 [this, bytes, service_us, tag, cq] {
                   Charge(bytes, service_us);
                   cq->Push(Completion{tag, Status::OK(), ReadOutcome()});
                 });
}

}  // namespace lakeharbor::sim
