#include "sim/disk.h"

#include <algorithm>
#include <utility>

#include "concurrent/timer_service.h"

namespace lakeharbor::sim {

Disk::Disk(DiskOptions options, TimerService* timers)
    : options_(options), injector_(options.faults), timers_(timers) {
  if (timers_ == nullptr) {
    own_timers_ = std::make_unique<TimerService>();
    timers_ = own_timers_.get();
  }
}

Disk::~Disk() = default;

Status Disk::MaybeFault(double* latency_scale, ReadOutcome* outcome) {
  FaultInjector::Decision decision = injector_.Assess("disk");
  if (decision.faulted()) {
    stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    return decision.status;
  }
  if (decision.spiked()) {
    stats_.injected_latency_spikes.fetch_add(1, std::memory_order_relaxed);
    if (latency_scale != nullptr) *latency_scale *= decision.latency_scale;
  }
  // Corruption only means anything for an operation whose caller returns
  // payload (outcome != nullptr): a write or cost-only probe drawing a
  // corrupt fate neither counts nor delivers it.
  if (decision.corrupted && outcome != nullptr) {
    stats_.injected_corruptions.fetch_add(1, std::memory_order_relaxed);
    outcome->corrupted = true;
    outcome->corruption_entropy = decision.corruption_entropy;
  }
  uint64_t every = fault_every_.load(std::memory_order_relaxed);
  if (every != 0) {
    uint64_t op = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (op % every == 0) {
      stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected transient disk fault");
    }
    return Status::OK();
  }
  if (!fault_armed_.load(std::memory_order_relaxed)) return Status::OK();
  if (ops_until_fault_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    stats_.injected_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("injected disk fault");
  }
  return Status::OK();
}

Status Disk::Assess(Op* op, ReadOutcome* outcome) {
  double latency_scale = 1.0;
  LH_RETURN_NOT_OK(MaybeFault(&latency_scale, outcome));
  op->service_us =
      (static_cast<double>(options_.random_read_latency_us) +
       static_cast<double>(op->ops - 1) *
           static_cast<double>(options_.batch_followup_latency_us)) *
      latency_scale;
  return Status::OK();
}

Status Disk::Assess(Scan* scan, ReadOutcome* outcome) {
  double latency_scale = 1.0;
  LH_RETURN_NOT_OK(MaybeFault(&latency_scale, outcome));
  scan->us_per_byte =
      latency_scale * 1e6 /
      static_cast<double>(options_.scan_bandwidth_bytes_per_sec);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Random reads, batch reads and writes: one slot count, one FIFO.
// ---------------------------------------------------------------------------

Status Disk::RandomRead(size_t bytes, ReadOutcome* outcome) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) { SubmitRandomRead(bytes, 0, cq); }, outcome);
}

Status Disk::BatchRandomRead(size_t ops, size_t bytes, ReadOutcome* outcome) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) { SubmitBatchRandomRead(ops, bytes, 0, cq); },
      outcome);
}

Status Disk::Write(size_t bytes) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) { SubmitWrite(bytes, 0, cq); });
}

void Disk::SubmitRandomRead(size_t bytes, uint64_t tag, CompletionQueue* cq) {
  Submit(Op(OpKind::kRead, 1, bytes, tag, cq));
}

void Disk::SubmitBatchRandomRead(size_t ops, size_t bytes, uint64_t tag,
                                 CompletionQueue* cq) {
  if (ops == 0) {
    cq->Push(Completion{tag, Status::OK(), ReadOutcome()});
    return;
  }
  Submit(Op(OpKind::kBatchRead, ops, bytes, tag, cq));
}

void Disk::SubmitWrite(size_t bytes, uint64_t tag, CompletionQueue* cq) {
  Submit(Op(OpKind::kWrite, 1, bytes, tag, cq));
}

void Disk::Submit(Op op) {
  // A write drawing a corrupt fate neither counts nor delivers it.
  Status fate =
      Assess(&op, op.kind == OpKind::kWrite ? nullptr : &op.outcome);
  if (!fate.ok()) {
    op.cq->Push(Completion{op.tag, std::move(fate), ReadOutcome()});
    return;
  }
  if (!Timed(op.service_us)) {
    Charge(op);
    op.cq->Push(Completion{op.tag, Status::OK(), op.outcome});
    return;
  }
  Admit(std::move(op));
}

void Disk::Charge(const Op& op) {
  if (op.kind == OpKind::kWrite) {
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(op.bytes, std::memory_order_relaxed);
  } else {
    stats_.random_reads.fetch_add(1, std::memory_order_relaxed);
    if (op.kind == OpKind::kBatchRead) {
      stats_.batched_reads.fetch_add(1, std::memory_order_relaxed);
      stats_.batched_ops.fetch_add(op.ops, std::memory_order_relaxed);
    }
    stats_.bytes_random.fetch_add(op.bytes, std::memory_order_relaxed);
  }
  stats_.RecordService(op.service_us);
}

void Disk::Admit(Op op) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_service_ >= slot_capacity()) {
      waiting_.push_back(std::move(op));
      return;
    }
    ++in_service_;
  }
  StartService(std::move(op));
}

void Disk::StartService(Op op) {
  const double delay_us = op.service_us * options_.time_scale;
  timers_->After(static_cast<uint64_t>(delay_us),
                 [this, op = std::move(op)] { FinishService(op); });
}

void Disk::FinishService(const Op& op) {
  Charge(op);
  // Hand the freed slot to the next waiting operation, if any, before the
  // completion goes out: a blocking caller may return (and its disk be torn
  // down after a join of this thread) as soon as it sees it.
  Op next;
  bool have_next = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (waiting_.empty()) {
      LH_CHECK(in_service_ > 0);
      --in_service_;
    } else {
      next = std::move(waiting_.front());
      waiting_.pop_front();
      have_next = true;  // the slot transfers directly
    }
  }
  if (have_next) StartService(std::move(next));
  op.cq->Push(Completion{op.tag, Status::OK(), op.outcome});
}

// ---------------------------------------------------------------------------
// Sequential scans: one chunk in service at a time, rotating among scans.
// ---------------------------------------------------------------------------

Status Disk::SequentialRead(size_t bytes, ReadOutcome* outcome) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) { SubmitSequentialRead(bytes, 0, cq); },
      outcome);
}

void Disk::SubmitSequentialRead(size_t bytes, uint64_t tag,
                                CompletionQueue* cq) {
  Scan scan;
  scan.remaining = bytes;
  scan.tag = tag;
  scan.cq = cq;
  Status fate = Assess(&scan, &scan.outcome);
  if (!fate.ok()) {
    cq->Push(Completion{tag, std::move(fate), ReadOutcome()});
    return;
  }
  if (!options_.timing_enabled || bytes == 0) {
    ChargeScan(scan);
    cq->Push(Completion{tag, Status::OK(), scan.outcome});
    return;
  }
  AdmitScan(std::move(scan));
}

void Disk::ChargeScanChunk(size_t chunk, double chunk_us) {
  stats_.sequential_chunks.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sequential.fetch_add(chunk, std::memory_order_relaxed);
  stats_.RecordService(chunk_us);
}

void Disk::ChargeScan(const Scan& scan) {
  size_t remaining = scan.remaining;
  while (remaining > 0) {
    const size_t chunk = std::min(remaining, options_.scan_chunk_bytes);
    ChargeScanChunk(chunk, static_cast<double>(chunk) * scan.us_per_byte);
    remaining -= chunk;
  }
}

void Disk::AdmitScan(Scan scan) {
  std::lock_guard<std::mutex> lock(mutex_);
  scans_.push_back(std::move(scan));
  if (scan_chunk_in_service_) return;  // the rotation will reach this scan
  scan_chunk_in_service_ = true;
  ScheduleNextScanChunkLocked();
}

void Disk::ScheduleNextScanChunkLocked() {
  LH_CHECK(!scans_.empty());
  const Scan& scan = scans_.front();
  const size_t chunk = std::min(scan.remaining, options_.scan_chunk_bytes);
  const double chunk_us = static_cast<double>(chunk) * scan.us_per_byte;
  timers_->After(static_cast<uint64_t>(chunk_us * options_.time_scale),
                 [this, chunk, chunk_us] { FinishScanChunk(chunk, chunk_us); });
}

void Disk::FinishScanChunk(size_t chunk, double chunk_us) {
  ChargeScanChunk(chunk, chunk_us);
  Completion done;
  CompletionQueue* cq = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Scan scan = std::move(scans_.front());
    scans_.pop_front();
    scan.remaining -= chunk;
    if (scan.remaining == 0) {
      cq = scan.cq;
      done = Completion{scan.tag, Status::OK(), scan.outcome};
    } else {
      scans_.push_back(std::move(scan));  // round-robin rotation
    }
    if (scans_.empty()) {
      scan_chunk_in_service_ = false;
    } else {
      ScheduleNextScanChunkLocked();
    }
  }
  if (cq != nullptr) cq->Push(std::move(done));
}

void Disk::InjectFaultAfter(uint64_t n) {
  ops_until_fault_.store(static_cast<int64_t>(n), std::memory_order_relaxed);
  fault_armed_.store(true, std::memory_order_relaxed);
}

void Disk::InjectFaultEvery(uint64_t n) {
  LH_CHECK_MSG(n >= 2, "InjectFaultEvery needs n >= 2");
  op_counter_.store(0, std::memory_order_relaxed);
  fault_every_.store(n, std::memory_order_relaxed);
}

void Disk::ClearFault() {
  fault_armed_.store(false, std::memory_order_relaxed);
  fault_every_.store(0, std::memory_order_relaxed);
}

}  // namespace lakeharbor::sim
