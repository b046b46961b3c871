#include "rede/builtin_derefs.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "rede/record_cache.h"

namespace lakeharbor::rede {

namespace {

using AsyncDone = StageFunction::AsyncDone;

/// Count one event on the run metrics, tolerating contexts without metrics
/// (direct stage-function calls in tests).
void Bump(const ExecContext& ctx,
          std::atomic<uint64_t> ExecMetricsCounters::*member,
          uint64_t n = 1) {
  if (ctx.metrics != nullptr && n != 0) {
    (ctx.metrics->*member).fetch_add(n, std::memory_order_relaxed);
  }
}

/// Charge a committed admission (and the evictions it displaced) to the
/// run that performed it. Call-site counting is what makes per-job cache
/// attribution exact under overlapped runs: the cache's global counters
/// are the sum of these per-job charges, nothing is double-counted.
void CountAdmission(const ExecContext& ctx,
                    const RecordCache::AdmissionOutcome& outcome) {
  if (outcome.admitted) Bump(ctx, &ExecMetricsCounters::cache_admissions);
  Bump(ctx, &ExecMetricsCounters::cache_evictions, outcome.evictions);
}

/// Record one failover hop on a traced run: a known-down replica skipped
/// without a probe (zero-length span, skipped=1) or a read re-issued
/// against the next replica (span covers the re-issued read).
void RecordFailoverSpan(const ExecContext& ctx, uint32_t replica,
                        int64_t t_start_us, int64_t t_end_us, bool skipped) {
  if (ctx.trace == nullptr) return;
  obs::Span span;
  span.name = "failover";
  span.kind = obs::SpanKind::kFailover;
  span.stage = ctx.stage;
  span.node = ctx.node;
  span.t_start_us = t_start_us;
  span.t_end_us = t_end_us;
  span.AddAttr("replica", replica);
  if (skipped) span.AddAttr("skipped", 1);
  ctx.trace->Record(std::move(span));
}

/// Minimum bytes charged for a read-repair write (a repair rewrites at
/// least one device page, like the io layer's minimum probe).
constexpr uint64_t kMinRepairBytes = 64;

/// Count a kCorruption verdict on a single-replica (or no-failover) read:
/// nothing can serve a clean copy, so the read is unrepairable by
/// construction and the caller surfaces the error — never wrong bytes.
void CountUnrepairable(const ExecContext& ctx, const Status& s) {
  if (!s.IsCorruption()) return;
  Bump(ctx, &ExecMetricsCounters::corruptions_detected);
  Bump(ctx, &ExecMetricsCounters::unrepairable);
}

/// Read repair: rewrite each corrupt replica in place from the clean copy
/// that ultimately served the read — one replicated write per rotten node,
/// best-effort (a faulted repair write leaves the replica for the
/// scrubber to retry later). Bumps read_repairs per successful rewrite.
///
/// With an AsyncRuntime the writes are submitted and the read goes on at
/// once: each write pins the run (RetainIo), as a hedge arm does, and
/// counts its repair when it lands. Inline calls and deterministic replay
/// (no runtime) submit and wait.
void RepairCorruptReplicas(const ExecContext& ctx, const io::File& file,
                           uint32_t partition,
                           const std::vector<uint32_t>& corrupt_replicas,
                           uint64_t bytes) {
  if (ctx.cluster == nullptr) return;
  const uint64_t repair_bytes = std::max(bytes, kMinRepairBytes);
  for (uint32_t r : corrupt_replicas) {
    const sim::NodeId bad = file.NodeOfReplica(partition, r);
    if (ctx.async == nullptr || ctx.completion_queue == nullptr) {
      if (ctx.cluster->ChargeReplicatedWrite(ctx.node, {bad}, repair_bytes)
              .ok()) {
        Bump(ctx, &ExecMetricsCounters::read_repairs);
      }
      continue;
    }
    AsyncRuntime* async = ctx.async;
    ExecMetricsCounters* metrics = ctx.metrics;
    async->RetainIo();
    ctx.cluster->SubmitChargeReplicatedWrite(
        ctx.node, {bad}, repair_bytes,
        sim::MakeCallbackTag([async, metrics](Status s) {
          if (s.ok() && metrics != nullptr) {
            metrics->read_repairs.fetch_add(1, std::memory_order_relaxed);
          }
          async->ReleaseIo();  // last: the pin keeps `metrics` alive
        }),
        ctx.completion_queue);
  }
}

/// Append `record` to a copy of `input`'s bundle, run the filter, and emit.
Status EmitFetched(const Tuple& input, const io::Record& record,
                   const Filter& filter, std::vector<Tuple>* out) {
  Tuple next;
  next.records.reserve(input.records.size() + 1);
  next.records = input.records;
  next.records.push_back(record);
  if (filter) {
    LH_ASSIGN_OR_RETURN(bool keep, filter(next));
    if (!keep) return Status::OK();
  }
  out->push_back(std::move(next));
  return Status::OK();
}

/// Run a continuation-passing invocation to completion on the calling
/// thread. Without a completion queue every io read completes before it
/// returns (io::File's async contract), and without a runtime nothing
/// hedges, so `done` has fired by the time `start` returns. This is the
/// whole of the built-in dereferencers' blocking Execute/ExecuteBatch.
template <typename Start>
Status RunInline(const ExecContext& ctx, const Start& start) {
  ExecContext inline_ctx = ctx;
  inline_ctx.completion_queue = nullptr;
  inline_ctx.async = nullptr;
  Status status;
  bool finished = false;
  start(inline_ctx, [&status, &finished](Status s) {
    status = std::move(s);
    finished = true;
  });
  LH_CHECK_MSG(finished, "inline dereference suspended without a queue");
  return status;
}

/// State of one dereference invocation across its suspensions. Every
/// ExecuteAsync / ExecuteBatchAsync call allocates exactly one frame, which
/// holds the walk state and the read buffers; each continuation it hands
/// to the io layer captures only the frame pointer (so std::function keeps
/// it inline, without an allocation). The frame deletes itself in Finish,
/// before `done` runs. The caller's `input`/`inputs` and `out` are
/// borrowed, valid until `done` fires.
///
/// Read completions run wherever the io layer delivers them: before the
/// read call returns without a completion queue (inline Execute), later on
/// a worker otherwise. A chain of inline completions recurses, bounded by
/// the partitions one invocation reads.
struct Frame {
  Frame(const ExecContext& context, AsyncDone on_done)
      : ctx(context), done(std::move(on_done)) {}
  virtual ~Frame() = default;
  LH_DISALLOW_COPY_AND_ASSIGN(Frame);

  /// Submit the read of the walked partition against `replica`. Resets the
  /// shape's read buffers first (the walk re-submits failed reads) and
  /// delivers the verdict through ReadDone().
  virtual void SubmitRead(uint32_t replica) = 0;
  /// Bytes of the clean result just read; sizes read-repair writes.
  virtual uint64_t ResultBytes() const { return 0; }
  /// The walked partition's read finished, failover included.
  virtual void OnPartitionRead(Status status) = 0;

  void Finish(Status status) {
    AsyncDone on_done = std::move(done);
    delete this;
    on_done(std::move(status));
  }

  io::File::AsyncReadDone ReadDone() {
    return [this](Status s) { OnReplicaRead(std::move(s)); };
  }

  /// Read one partition with transparent replica failover, then call
  /// OnPartitionRead. Replicas known to be down are skipped without a
  /// probe, and a replica answering kUnavailable (outage raced the
  /// liveness check) hands the read to the next one — BEFORE any retry
  /// backoff, which is what keeps a whole-node outage from burning the
  /// retry budget against a dead disk. A replica answering kCorruption
  /// (checksum mismatch) is treated exactly like a dead one and never
  /// re-read; once a later replica serves a clean copy, every corrupt
  /// replica passed over is rewritten in place (read repair). Other errors
  /// (kIoError) are a device hiccup, not a dead node, and stay with the
  /// retry policy. When every replica is down the primary is probed anyway
  /// so the caller sees the real outage error; when every replica is
  /// corrupt or unreachable the read fails kCorruption (counted
  /// unrepairable). A one-replica partition is read directly.
  ///
  /// The slot count is per PARTITION, not the file-level rf: during a
  /// rebalance a flipped partition exposes new replicas first with the old
  /// set appended as a failover tail (see io::PlacementManager).
  void ReadPartition(const io::File& file, uint32_t partition) {
    walk_file = &file;
    walk_partition = partition;
    walk_rf = file.ReplicaCountFor(partition);
    walk_direct = walk_rf <= 1 || ctx.cluster == nullptr;
    if (walk_direct) {
      SubmitRead(0);
      return;
    }
    walk_replica = 0;
    walk_attempted = false;
    walk_last = Status::OK();
    corrupt_replicas.clear();
    NextReplica();
  }

  void NextReplica() {
    while (walk_replica < walk_rf) {
      const uint32_t r = walk_replica;
      if (ctx.cluster->NodeIsDown(walk_file->NodeOfReplica(walk_partition,
                                                           r))) {
        Bump(ctx, &ExecMetricsCounters::failovers);
        const int64_t now_us = ctx.trace != nullptr ? NowMicros() : 0;
        RecordFailoverSpan(ctx, r, now_us, now_us, /*skipped=*/true);
        ++walk_replica;
        continue;
      }
      walk_is_hop = walk_attempted;  // a prior replica already answered
      if (walk_attempted) Bump(ctx, &ExecMetricsCounters::failovers);
      if (r > 0) Bump(ctx, &ExecMetricsCounters::replica_reads);
      walk_hop_start_us =
          (walk_is_hop && ctx.trace != nullptr) ? NowMicros() : 0;
      SubmitRead(r);
      return;
    }
    if (!walk_attempted) {
      walk_direct = true;
      SubmitRead(0);
      return;
    }
    // Corruption was seen and no replica ever served a clean copy: the
    // caller gets an error (usually kCorruption), never rotten bytes.
    if (!corrupt_replicas.empty()) {
      Bump(ctx, &ExecMetricsCounters::unrepairable);
    }
    OnPartitionRead(std::move(walk_last));
  }

  void OnReplicaRead(Status status) {
    if (walk_direct) {
      CountUnrepairable(ctx, status);
      OnPartitionRead(std::move(status));
      return;
    }
    if (walk_is_hop && ctx.trace != nullptr) {
      RecordFailoverSpan(ctx, walk_replica, walk_hop_start_us, NowMicros(),
                         /*skipped=*/false);
    }
    walk_attempted = true;
    if (status.ok()) {
      if (!corrupt_replicas.empty()) {
        RepairCorruptReplicas(ctx, *walk_file, walk_partition,
                              corrupt_replicas, ResultBytes());
      }
      OnPartitionRead(std::move(status));
      return;
    }
    if (status.IsCorruption()) {
      Bump(ctx, &ExecMetricsCounters::corruptions_detected);
      corrupt_replicas.push_back(walk_replica);
    } else if (!status.IsUnavailable()) {
      OnPartitionRead(std::move(status));
      return;
    }
    walk_last = std::move(status);
    ++walk_replica;
    NextReplica();
  }

  ExecContext ctx;
  AsyncDone done;
  // Replica walk of the partition being read.
  const io::File* walk_file = nullptr;
  uint32_t walk_partition = 0;
  uint32_t walk_rf = 0;
  uint32_t walk_replica = 0;
  bool walk_direct = false;  // one read, nothing to fail over to
  bool walk_attempted = false;
  bool walk_is_hop = false;
  int64_t walk_hop_start_us = 0;
  Status walk_last;
  std::vector<uint32_t> corrupt_replicas;
};

/// State of one hedged read, shared by its two arms. Both arms read into
/// buffers owned here, so a loser's completion — which can arrive after the
/// adopting frame has finished — touches only this state. The first arm
/// that succeeds is adopted; an arm that fails defers to the other one while
/// it is in flight, and the read adopts the primary's failure once both have
/// failed. Each arm holds its own RetainIo pin on the runtime from launch
/// until it lands, so the run cannot end under either arm.
struct HedgeState {
  std::mutex mutex;
  ExecContext ctx;
  std::shared_ptr<io::File> file;
  uint32_t partition = 0;
  std::string key;  // owned: the second arm may launch after the read ended
  std::vector<io::Record>* read = nullptr;  // the adopting frame's buffer
  AsyncDone done;
  uint32_t primary = 0;
  uint32_t secondary = 0;
  std::vector<io::Record> primary_records;
  std::vector<io::Record> secondary_records;
  Status primary_status;
  bool primary_done = false;
  bool hedged = false;  // the second arm was launched
  bool secondary_done = false;
  bool finished = false;  // an arm was adopted
  int64_t hedge_start_us = 0;
};

void HedgeOnPrimary(const std::shared_ptr<HedgeState>& st, Status s) {
  bool adopt = false;
  Status adopt_status;
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    st->primary_done = true;
    st->primary_status = std::move(s);
    // A success wins outright; a failure waits for a second arm still in
    // flight.
    if (!st->finished && (st->primary_status.ok() || !st->hedged ||
                          st->secondary_done)) {
      st->finished = true;
      adopt = true;
      adopt_status = st->primary_status;
    }
  }
  if (adopt) {
    *st->read = std::move(st->primary_records);
    st->done(std::move(adopt_status));
  }
  // The pin is released LAST: until here the run (and with it the runtime,
  // queues, and metrics this state's context points into) must stay up.
  st->ctx.async->ReleaseIo();
}

void HedgeOnSecondary(const std::shared_ptr<HedgeState>& st, Status s) {
  bool adopt_secondary = false;
  bool adopt_primary = false;
  Status primary_status;
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    st->secondary_done = true;
    if (!st->finished && s.ok()) {
      st->finished = true;
      adopt_secondary = true;
    } else if (!st->finished && st->primary_done) {
      // Both arms failed: the primary's verdict stands.
      st->finished = true;
      adopt_primary = true;
      primary_status = st->primary_status;
    }
  }
  if (st->ctx.trace != nullptr) {
    obs::Span span;
    span.name = "hedge";
    span.kind = obs::SpanKind::kHedge;
    span.stage = st->ctx.stage;
    span.node = st->ctx.node;
    span.t_start_us = st->hedge_start_us;
    span.t_end_us = NowMicros();
    span.AddAttr("replica", st->secondary);
    span.AddAttr("won", adopt_secondary ? 1 : 0);
    st->ctx.trace->Record(std::move(span));
  }
  if (adopt_secondary) {
    Bump(st->ctx, &ExecMetricsCounters::hedge_wins);
    *st->read = std::move(st->secondary_records);
    st->done(std::move(s));
  } else if (adopt_primary) {
    *st->read = std::move(st->primary_records);
    st->done(std::move(primary_status));
  }
  st->ctx.async->ReleaseIo();
}

/// Launch the second arm. The caller has set `hedged` and taken the arm's
/// pin while the read was still unfinished.
void LaunchSecondary(const std::shared_ptr<HedgeState>& st) {
  Bump(st->ctx, &ExecMetricsCounters::hedged_reads);
  if (st->primary != st->secondary && st->secondary > 0) {
    Bump(st->ctx, &ExecMetricsCounters::replica_reads);
  }
  st->hedge_start_us = st->ctx.trace != nullptr ? NowMicros() : 0;
  st->file->GetInPartitionOnReplicaAsync(
      st->ctx.node, st->partition, st->secondary, st->key,
      &st->secondary_records, st->ctx.completion_queue,
      [st](Status s) { HedgeOnSecondary(st, std::move(s)); });
}

void HedgeOnDeadline(const std::shared_ptr<HedgeState>& st) {
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    if (st->finished || st->primary_done) return;  // primary won in time
    st->hedged = true;
    // Pinned under the lock: the read is unfinished, so its task still
    // holds the run; once the lock drops the primary may finish it.
    st->ctx.async->RetainIo();
  }
  LaunchSecondary(st);
}

/// First two live replicas of `partition`, or false when fewer than two
/// are live (the read then takes the failover walk).
bool PickHedgeReplicas(const ExecContext& ctx, const io::File& file,
                       uint32_t partition, uint32_t* primary,
                       uint32_t* secondary) {
  const uint32_t rf = file.ReplicaCountFor(partition);
  if (rf < 2 || ctx.cluster == nullptr) return false;
  uint32_t live[2] = {0, 0};
  uint32_t n = 0;
  for (uint32_t r = 0; r < rf && n < 2; ++r) {
    if (!ctx.cluster->NodeIsDown(file.NodeOfReplica(partition, r))) {
      live[n++] = r;
    }
  }
  if (n < 2) return false;
  *primary = live[0];
  *secondary = live[1];
  return true;
}

class PointDereferencer final : public Dereferencer {
 public:
  PointDereferencer(std::string name, std::shared_ptr<io::File> file,
                    Filter filter,
                    std::shared_ptr<const index::PartitionBloom> bloom)
      : Dereferencer(std::move(name)),
        file_(std::move(file)),
        filter_(std::move(filter)),
        bloom_(std::move(bloom)) {
    LH_CHECK(file_ != nullptr);
  }

  bool SupportsBatchedDereference() const override { return true; }

  uint32_t PartitionOfPointer(const io::Pointer& ptr) const override {
    return file_->partitioner().PartitionOf(ptr.partition_key);
  }

  uint32_t TargetReplication() const override {
    return file_->replication_factor();
  }

  Status Execute(const ExecContext& ctx, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    return RunInline(ctx, [&](const ExecContext& c, AsyncDone done) {
      ExecuteAsync(c, input, out, std::move(done));
    });
  }

  Status ExecuteBatch(const ExecContext& ctx, const std::vector<Tuple>& inputs,
                      std::vector<Tuple>* out) const override {
    return RunInline(ctx, [&](const ExecContext& c, AsyncDone done) {
      ExecuteBatchAsync(c, inputs, out, std::move(done));
    });
  }

  /// Every device read suspends the state machine on the context's
  /// completion queue (or completes in place without one). Cache hits
  /// continue inline.
  void ExecuteAsync(const ExecContext& ctx, const Tuple& input,
                    std::vector<Tuple>* out, AsyncDone done) const override {
    if (input.is_range) {
      done(Status::InvalidArgument(
          "point dereferencer '" + name() +
          "' received a range pointer; use a range dereferencer"));
      return;
    }
    (new PointFrame(ctx, std::move(done), *this, input, out))->Start();
  }

  void ExecuteBatchAsync(const ExecContext& ctx,
                         const std::vector<Tuple>& inputs,
                         std::vector<Tuple>* out,
                         AsyncDone done) const override {
    for (const Tuple& t : inputs) {
      if (t.is_range || !t.pointer.has_partition) {
        // The executor only batches keyed point tuples; a direct caller's
        // degenerate batch takes the per-tuple loop (each tuple inline).
        done(StageFunction::ExecuteBatch(ctx, inputs, out));
        return;
      }
    }
    if (inputs.empty()) {
      done(Status::OK());
      return;
    }
    (new BatchFrame(ctx, std::move(done), *this, inputs, out))->Start();
  }

 private:
  /// One point dereference. A keyed pointer reads its one partition; a
  /// broadcast copy walks the partitions this node resolves. Each partition
  /// probe consults the record cache first and, on a miss, admits the read
  /// two-phase (reserve → read → commit or abort) so a concurrent admitter
  /// of the same key cannot double-admit.
  struct PointFrame final : Frame {
    PointFrame(const ExecContext& context, AsyncDone on_done,
               const PointDereferencer& d, const Tuple& in,
               std::vector<Tuple>* o)
        : Frame(context, std::move(on_done)),
          deref(d),
          input(in),
          out(o),
          cache(d.file_->CacheableReads() ? context.record_cache : nullptr) {}

    void Start() {
      if (input.pointer.has_partition) {
        Fetch(deref.PartitionOfPointer(input.pointer));
        return;
      }
      // Broadcast pointer. Under SMPE the executor replicated this tuple
      // to every node and marked it resolve_local, so only the partitions
      // local to this node are consulted (Algorithm 1: SETPARTITION(input,
      // LOCAL)). Without the mark (partitioned executor: no cross-node task
      // shipping) the single owner consults every partition, paying remote
      // reads instead of broadcast messages. A redirected copy (its target
      // node was down at fan-out) carries that node's id in resolve_owner:
      // this node stands in for it, resolving ITS partitions via failover.
      owner = input.resolve_owner == Tuple::kResolveOnSelf
                  ? ctx.node
                  : input.resolve_owner;
      NextBroadcastPartition();
    }

    void NextBroadcastPartition() {
      const io::File& file = *deref.file_;
      while (next_partition < file.num_partitions()) {
        const uint32_t p = next_partition++;
        // Ownership is resolved against the tuple's fan-out epoch so a
        // rebalance commit racing this job cannot duplicate or drop a
        // partition across nodes.
        if (input.resolve_local &&
            file.BroadcastOwner(p, input.resolve_epoch) != owner) {
          continue;
        }
        if (deref.bloom_ != nullptr &&
            !deref.bloom_->MightContain(p, input.pointer.key)) {
          // Membership structure rules this partition out: no probe.
          deref.file_->mutable_access_stats().bloom_skips.fetch_add(
              1, std::memory_order_relaxed);
          continue;
        }
        Fetch(p);
        return;
      }
      Emit();
    }

    void Fetch(uint32_t p) {
      partition = p;
      if (cache != nullptr) {
        cache_key =
            RecordCache::MakeKey(deref.file_->name(), p, input.pointer.key);
        if (auto hit = cache->Lookup(cache_key)) {
          Bump(ctx, &ExecMetricsCounters::cache_hits);
          fetched.insert(fetched.end(), hit->begin(), hit->end());
          Fetched();
          return;
        }
        Bump(ctx, &ExecMetricsCounters::cache_misses);
        admitting = cache->StartAdmission(cache_key);
      }
      // Hedged when the run hedges (it needs the runtime's timers and run
      // pin, so inline calls and deterministic replay never hedge) and two
      // replicas are live; the failover walk otherwise.
      uint32_t primary = 0;
      uint32_t secondary = 0;
      if (ctx.hedge.enabled && ctx.async != nullptr &&
          PickHedgeReplicas(ctx, *deref.file_, p, &primary, &secondary)) {
        StartHedgedRead(primary, secondary);
        return;
      }
      ReadPartition(*deref.file_, p);
    }

    void SubmitRead(uint32_t replica) override {
      read.clear();
      deref.file_->GetInPartitionOnReplicaAsync(
          ctx.node, partition, replica, input.pointer.key, &read,
          ctx.completion_queue, ReadDone());
    }

    uint64_t ResultBytes() const override {
      uint64_t bytes = 0;
      for (const io::Record& rec : read) bytes += rec.size();
      return bytes;
    }

    void OnPartitionRead(Status status) override {
      if (!status.ok()) {
        if (admitting) cache->AbortAdmission(cache_key);
        Finish(std::move(status));
        return;
      }
      if (admitting) {
        CountAdmission(ctx, cache->CommitAdmission(cache_key, read));
      }
      if (fetched.empty()) {
        fetched.swap(read);
      } else {
        fetched.insert(fetched.end(), read.begin(), read.end());
      }
      Fetched();
    }

    /// One partition's records are in `fetched`.
    void Fetched() {
      if (input.pointer.has_partition) {
        Emit();
      } else {
        NextBroadcastPartition();
      }
    }

    /// Race two live replicas. The primary is submitted at once; the second
    /// arm follows after hedge.deadline_us, or right away when the deadline
    /// is 0 ("hedge immediately"). See HedgeState for the protocol.
    void StartHedgedRead(uint32_t primary, uint32_t secondary) {
      auto st = std::make_shared<HedgeState>();
      st->ctx = ctx;
      st->file = deref.file_;
      st->partition = partition;
      st->key = input.pointer.key;
      st->read = &read;
      st->done = [this](Status s) { OnHedgedRead(std::move(s)); };
      st->primary = primary;
      st->secondary = secondary;
      // With deadline 0 both arms are decided, and pinned, before either
      // is in flight.
      AsyncRuntime* async = ctx.async;
      const uint64_t deadline_us = ctx.hedge.deadline_us;
      st->hedged = deadline_us == 0;
      // Pin the run before an arm is in flight: its completion may arrive
      // after this read adopted the other arm, and must still find the
      // runtime alive.
      async->RetainIo();
      if (st->hedged) async->RetainIo();
      // Once the primary is in flight it may be adopted on another worker,
      // finishing (and deleting) this frame: touch only `st` and locals.
      deref.file_->GetInPartitionOnReplicaAsync(
          ctx.node, partition, primary, st->key, &st->primary_records,
          ctx.completion_queue,
          [st](Status s) { HedgeOnPrimary(st, std::move(s)); });
      if (deadline_us == 0) {
        LaunchSecondary(st);
      } else {
        async->After(deadline_us, [st]() { HedgeOnDeadline(st); });
      }
    }

    void OnHedgedRead(Status status) {
      if (status.ok() ||
          (!status.IsUnavailable() && !status.IsCorruption())) {
        OnPartitionRead(std::move(status));
        return;
      }
      // An outage — or a checksum mismatch — surfaced mid-hedge: fall back
      // to the failover walk, which owns the skip-the-bad-replica and
      // read-repair logic.
      ReadPartition(*deref.file_, partition);
    }

    void Emit() {
      for (const io::Record& record : fetched) {
        Status emit = EmitFetched(input, record, deref.filter_, out);
        if (!emit.ok()) {
          Finish(std::move(emit));
          return;
        }
      }
      Finish(Status::OK());
    }

    const PointDereferencer& deref;
    const Tuple& input;
    std::vector<Tuple>* out;
    RecordCache* cache;  // null when caching is off or the file is not cacheable
    std::vector<io::Record> fetched;  // every probed partition's records
    std::vector<io::Record> read;     // the current partition's read
    uint32_t partition = 0;
    std::string cache_key;
    bool admitting = false;
    uint32_t next_partition = 0;  // broadcast cursor
    sim::NodeId owner = 0;
  };

  /// One fused batch of keyed point tuples. Each DISTINCT (partition, key)
  /// is resolved once; duplicate pointers in the batch share the result.
  /// Cache hits are pinned for the duration of the call so concurrent
  /// evictions cannot churn the working set mid-batch. Each missing
  /// partition is one failover batch read (hedging is a point-lookup
  /// latency tool and does not apply to batches), read in partition order.
  struct BatchFrame final : Frame {
    using LookupKey = std::pair<uint32_t, std::string>;

    BatchFrame(const ExecContext& context, AsyncDone on_done,
               const PointDereferencer& d, const std::vector<Tuple>& in,
               std::vector<Tuple>* o)
        : Frame(context, std::move(on_done)),
          deref(d),
          inputs(in),
          out(o),
          cache(d.file_->CacheableReads() ? context.record_cache : nullptr) {}

    void Start() {
      for (const Tuple& input : inputs) {
        const uint32_t partition = deref.PartitionOfPointer(input.pointer);
        LookupKey lk{partition, input.pointer.key};
        if (resolved.count(lk) != 0) continue;
        if (cache != nullptr) {
          std::string ck = RecordCache::MakeKey(deref.file_->name(),
                                                partition, input.pointer.key);
          if (auto hit = cache->Lookup(ck)) {
            Bump(ctx, &ExecMetricsCounters::cache_hits);
            resolved.emplace(std::move(lk), std::move(*hit));
            if (cache->Pin(ck)) pinned.push_back(std::move(ck));
            continue;
          }
          Bump(ctx, &ExecMetricsCounters::cache_misses);
        }
        resolved.emplace(std::move(lk), std::vector<io::Record>{});
        missing[partition].push_back(input.pointer.key);
      }
      next_missing = missing.begin();
      NextPartition();
    }

    void NextPartition() {
      if (next_missing == missing.end()) {
        Emit();
        return;
      }
      ReadPartition(*deref.file_, next_missing->first);
    }

    void SubmitRead(uint32_t replica) override {
      results.clear();
      deref.file_->GetBatchInPartitionOnReplicaAsync(
          ctx.node, next_missing->first, replica, next_missing->second,
          &results, ctx.completion_queue, ReadDone());
    }

    uint64_t ResultBytes() const override {
      uint64_t bytes = 0;
      for (const auto& bucket : results) {
        for (const io::Record& rec : bucket) bytes += rec.size();
      }
      return bytes;
    }

    void OnPartitionRead(Status status) override {
      if (!status.ok()) {
        // Entries admitted by THIS call are invalidated wholesale: the
        // executor's retry must re-read the whole batch, never observe (or
        // double-admit) a partial one.
        for (const std::string& ck : admitted) {
          if (cache->Invalidate(ck)) {
            Bump(ctx, &ExecMetricsCounters::cache_invalidations);
          }
        }
        Unpin();
        Finish(std::move(status));
        return;
      }
      const uint32_t partition = next_missing->first;
      const std::vector<std::string>& keys = next_missing->second;
      LH_CHECK(results.size() == keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        if (cache != nullptr) {
          std::string ck =
              RecordCache::MakeKey(deref.file_->name(), partition, keys[i]);
          if (cache->StartAdmission(ck)) {
            CountAdmission(ctx, cache->CommitAdmission(ck, results[i]));
            admitted.push_back(std::move(ck));
          }
        }
        resolved[LookupKey{partition, keys[i]}] = std::move(results[i]);
      }
      ++next_missing;
      NextPartition();
    }

    void Emit() {
      for (const Tuple& input : inputs) {
        const std::vector<io::Record>& fetched =
            resolved[LookupKey{deref.PartitionOfPointer(input.pointer),
                               input.pointer.key}];
        for (const io::Record& record : fetched) {
          Status emit = EmitFetched(input, record, deref.filter_, out);
          // Emission failures (filter errors) are permanent, not transient:
          // keep the admitted entries (the reads succeeded) but drop pins.
          if (!emit.ok()) {
            Unpin();
            Finish(std::move(emit));
            return;
          }
        }
      }
      Unpin();
      Finish(Status::OK());
    }

    void Unpin() {
      for (const std::string& ck : pinned) cache->Unpin(ck);
    }

    const PointDereferencer& deref;
    const std::vector<Tuple>& inputs;
    std::vector<Tuple>* out;
    RecordCache* cache;
    std::map<LookupKey, std::vector<io::Record>> resolved;
    std::map<uint32_t, std::vector<std::string>> missing;  // keys per partition
    std::map<uint32_t, std::vector<std::string>>::const_iterator next_missing;
    std::vector<std::string> pinned;
    std::vector<std::string> admitted;
    std::vector<std::vector<io::Record>> results;  // current partition's read
  };

  std::shared_ptr<io::File> file_;
  Filter filter_;
  std::shared_ptr<const index::PartitionBloom> bloom_;
};

class RangeDereferencer final : public Dereferencer {
 public:
  RangeDereferencer(std::string name, std::shared_ptr<io::BtreeFile> file,
                    Filter filter, RangeRouting routing)
      : Dereferencer(std::move(name)),
        file_(std::move(file)),
        filter_(std::move(filter)),
        routing_(routing) {
    LH_CHECK(file_ != nullptr);
  }

  bool WantsBroadcast() const override {
    return routing_ == RangeRouting::kBroadcast;
  }

  uint32_t TargetReplication() const override {
    return file_->replication_factor();
  }

  Status Execute(const ExecContext& ctx, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    return RunInline(ctx, [&](const ExecContext& c, AsyncDone done) {
      ExecuteAsync(c, input, out, std::move(done));
    });
  }

  /// Partition routing is pure CPU and resolved up front; the state
  /// machine then chains one failover range read per partition.
  void ExecuteAsync(const ExecContext& ctx, const Tuple& input,
                    std::vector<Tuple>* out, AsyncDone done) const override {
    if (!input.is_range) {
      done(Status::InvalidArgument("range dereferencer '" + name() +
                                   "' received a point pointer"));
      return;
    }
    auto* f = new RangeFrame(ctx, std::move(done), *this, input, out);
    if (input.pointer.has_partition) {
      f->next_partition = f->end_partition =
          file_->partitioner().PartitionOf(input.pointer.partition_key);
    } else if (routing_ == RangeRouting::kPruneByKeyRange) {
      // The structure is partitioned by the indexed key with an
      // order-preserving partitioner: only the partitions whose key range
      // intersects [lo, hi] can hold matches.
      f->next_partition = file_->partitioner().PartitionOf(input.pointer.key);
      f->end_partition =
          file_->partitioner().PartitionOf(input.pointer_hi.key);
      if (f->end_partition < f->next_partition) {
        std::swap(f->next_partition, f->end_partition);  // defensive
      }
    } else {
      // Same broadcast-resolution (and redirect stand-in) rule as the point
      // dereferencer.
      f->owned_only = input.resolve_local;
      f->owner = input.resolve_owner == Tuple::kResolveOnSelf
                     ? ctx.node
                     : input.resolve_owner;
      f->next_partition = 0;
      f->end_partition = file_->num_partitions() - 1;
    }
    f->NextPartition();
  }

 private:
  /// One range dereference over partitions [next_partition, end_partition].
  /// A range read emits WHILE iterating (on the delivering thread, once the
  /// read's charges landed and verified), so switching replicas first
  /// retracts what the failed attempt emitted: exactly-once emission
  /// whatever replica ends up serving the range.
  struct RangeFrame final : Frame {
    RangeFrame(const ExecContext& context, AsyncDone on_done,
               const RangeDereferencer& d, const Tuple& in,
               std::vector<Tuple>* o)
        : Frame(context, std::move(on_done)), deref(d), input(in), out(o) {}

    void NextPartition() {
      while (next_partition <= end_partition &&
             next_partition < deref.file_->num_partitions()) {
        const uint32_t p = next_partition++;
        if (owned_only &&
            deref.file_->BroadcastOwner(p, input.resolve_epoch) != owner) {
          continue;
        }
        partition = p;
        out_mark = out->size();
        ReadPartition(*deref.file_, p);
        return;
      }
      Finish(Status::OK());
    }

    void SubmitRead(uint32_t replica) override {
      out->resize(out_mark);
      emit_status = Status::OK();
      deref.file_->GetRangeInPartitionOnReplicaAsync(
          ctx.node, partition, replica, input.pointer.key,
          input.pointer_hi.key,
          [this](const io::Record& record) {
            emit_status = EmitFetched(input, record, deref.filter_, out);
            return emit_status.ok();
          },
          ctx.completion_queue, ReadDone());
    }

    void OnPartitionRead(Status status) override {
      if (status.ok()) status = std::move(emit_status);
      if (!status.ok()) {
        Finish(std::move(status));
        return;
      }
      NextPartition();
    }

    const RangeDereferencer& deref;
    const Tuple& input;
    std::vector<Tuple>* out;
    uint32_t next_partition = 0;
    uint32_t end_partition = 0;  // inclusive
    bool owned_only = false;     // broadcast copy: this node's partitions
    sim::NodeId owner = 0;
    uint32_t partition = 0;
    size_t out_mark = 0;
    Status emit_status;
  };

  std::shared_ptr<io::BtreeFile> file_;
  Filter filter_;
  RangeRouting routing_;
};

}  // namespace

StageFunctionPtr MakePointDereferencer(
    std::string name, std::shared_ptr<io::File> file, Filter filter,
    std::shared_ptr<const index::PartitionBloom> bloom) {
  return std::make_shared<PointDereferencer>(std::move(name), std::move(file),
                                             std::move(filter),
                                             std::move(bloom));
}

StageFunctionPtr MakeRangeDereferencer(std::string name,
                                       std::shared_ptr<io::BtreeFile> file,
                                       Filter filter, RangeRouting routing) {
  return std::make_shared<RangeDereferencer>(std::move(name), std::move(file),
                                             std::move(filter), routing);
}

}  // namespace lakeharbor::rede
