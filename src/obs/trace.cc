#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <string_view>

namespace lakeharbor::obs {

namespace {

std::atomic<uint64_t> g_spans_recorded{0};
std::atomic<uint64_t> g_chunks_allocated{0};
std::atomic<uint64_t> g_next_job_id{1};
std::atomic<uint64_t> g_next_epoch{1};

/// Thread-local recorder binding. The epoch (not the recorder address,
/// which malloc can recycle) decides whether the cached chunk belongs to
/// the recorder at hand; a stale epoch forces re-registration, so a pool
/// thread reused across runs never touches a dead recorder's memory.
struct TlsSlot {
  uint64_t epoch = 0;
  TraceRecorder::Chunk* chunk = nullptr;
  uint32_t thread_index = 0;
};
thread_local TlsSlot tls_slot;

}  // namespace

uint64_t TraceCounters::SpansRecorded() {
  return g_spans_recorded.load(std::memory_order_relaxed);
}

uint64_t TraceCounters::ChunksAllocated() {
  return g_chunks_allocated.load(std::memory_order_relaxed);
}

uint64_t NextJobId() {
  return g_next_job_id.fetch_add(1, std::memory_order_relaxed);
}

/// A fixed-capacity span buffer owned by one recording thread. Appends are
/// written only by that thread; readers (Collect) are ordered after every
/// writer by the executor's quiescence protocol. Capacity is reserved, not
/// constructed — with many recording threads each holding a handful of
/// spans, eagerly constructing full chunks of Spans (std::string name and
/// all) was itself a measurable per-run tracing cost. A thread's first
/// chunk is small for the same reason; only threads that outgrow it pay
/// for a full-size one.
struct TraceRecorder::Chunk {
  static constexpr size_t kFirstChunkSpans = 16;
  static constexpr size_t kChunkSpans = 256;

  Chunk(uint32_t thread_index, size_t capacity) : thread(thread_index) {
    spans.reserve(capacity);
  }

  const uint32_t thread;
  std::vector<Span> spans;
};

TraceRecorder::TraceRecorder(uint64_t job_id)
    : epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed)),
      job_id_(job_id) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::Chunk* TraceRecorder::RegisterChunk(uint32_t thread_index,
                                                   bool new_thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (new_thread) thread_index = next_thread_++;
  chunks_.push_back(std::make_unique<Chunk>(
      thread_index,
      new_thread ? Chunk::kFirstChunkSpans : Chunk::kChunkSpans));
  g_chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  return chunks_.back().get();
}

void TraceRecorder::Record(Span span) {
  TlsSlot& slot = tls_slot;
  if (slot.epoch != epoch_) {
    slot.chunk = RegisterChunk(0, /*new_thread=*/true);
    slot.thread_index = slot.chunk->thread;
    slot.epoch = epoch_;
  } else if (slot.chunk->spans.size() == slot.chunk->spans.capacity()) {
    slot.chunk = RegisterChunk(slot.thread_index, /*new_thread=*/false);
  }
  span.thread = slot.thread_index;
  slot.chunk->spans.push_back(std::move(span));
  g_spans_recorded.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> TraceRecorder::Collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->spans.size();
  all.reserve(total);
  for (const auto& chunk : chunks_) {
    all.insert(all.end(), chunk->spans.begin(), chunk->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.t_start_us < b.t_start_us;
  });
  return all;
}

uint64_t TraceRecorder::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->spans.size();
  return total;
}

int64_t Span::AttrOr(const char* key, int64_t fallback) const {
  for (uint8_t i = 0; i < num_attrs; ++i) {
    if (std::string_view(attrs[i].key) == key) return attrs[i].value;
  }
  return fallback;
}

}  // namespace lakeharbor::obs
