#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/status_or.h"
#include "concurrent/timer_service.h"
#include "sim/completion_queue.h"
#include "sim/disk.h"
#include "sim/network.h"
#include "sim/resource_stats.h"

namespace lakeharbor::sim {

using NodeId = uint32_t;

/// One compute/storage node of the simulated cluster: an id plus its disk.
/// Compute is real (the executors run real threads "on" nodes); only the
/// I/O devices are simulated.
class Node {
 public:
  Node(NodeId id, DiskOptions disk_options, TimerService* timers)
      : id_(id), disk_(std::make_unique<Disk>(disk_options, timers)) {}
  LH_DISALLOW_COPY_AND_ASSIGN(Node);

  NodeId id() const { return id_; }
  Disk& disk() { return *disk_; }
  const Disk& disk() const { return *disk_; }

 private:
  NodeId id_;
  std::unique_ptr<Disk> disk_;
};

/// Cluster-wide simulation parameters.
struct ClusterOptions {
  uint32_t num_nodes = 8;
  DiskOptions disk;
  NetworkOptions network;

  /// Upper bound on nodes this cluster can ever hold (initial + joins).
  /// 0 means "auto": max(num_nodes * 2, 64). The bound exists because node
  /// slots are pre-allocated so that concurrent readers never race a vector
  /// reallocation when a node joins mid-run.
  uint32_t max_nodes = 0;

  /// Default options with a given node count (counting mode — no timing).
  static ClusterOptions ForNodes(uint32_t n) {
    ClusterOptions options;
    options.num_nodes = n;
    return options;
  }

  /// Convenience: flip timing simulation on/off for every device at once.
  ClusterOptions& EnableTiming(bool enabled, double time_scale = 1.0) {
    disk.timing_enabled = enabled;
    disk.time_scale = time_scale;
    network.timing_enabled = enabled;
    network.time_scale = time_scale;
    return *this;
  }
};

/// The simulated cluster substituting for the paper's 128-node testbed.
/// Storage-layer code asks the cluster to charge device costs: a read of a
/// record in partition P placed on node N, issued from node M, costs one
/// random read on N's disk plus a network hop when M != N.
///
/// Membership is elastic: `AddNode` registers a node online (ids are dense
/// and never reused) and `RemoveNode` decommissions one. Node slots are
/// pre-sized to `max_nodes` at construction and published with a
/// release-store on `num_nodes_`, so readers holding an id < num_nodes()
/// can use it lock-free while a join runs concurrently. Removal is
/// drain-first: callers (the rebalancer) migrate data away while the node
/// still serves, and only then call RemoveNode — after which the node
/// reads/writes/messages fail kUnavailable exactly like an outage, but
/// permanently.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  LH_DISALLOW_COPY_AND_ASSIGN(Cluster);

  /// Registered nodes (including decommissioned ones — ids stay dense).
  uint32_t num_nodes() const {
    return num_nodes_.load(std::memory_order_acquire);
  }
  uint32_t max_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  Node& node(NodeId id) {
    LH_CHECK(id < num_nodes());
    return *nodes_[id];
  }
  Network& network() { return *network_; }
  const ClusterOptions& options() const { return options_; }

  /// Register one new node online. Its disk inherits the cluster's disk
  /// options, the currently configured fault knobs (with a per-node derived
  /// seed) and timing mode. Returns the new dense id, or kResourceExhausted
  /// when the pre-sized capacity (`ClusterOptions::max_nodes`) is full.
  StatusOr<NodeId> AddNode();

  /// Decommission a node: it permanently leaves the serving set. All
  /// charges against it fail kUnavailable from this call on, NodeIsDown()
  /// reports it down (so replica failover skips it), and ActiveNodeIds()
  /// excludes it. The id is never reused. Callers drain data off the node
  /// FIRST (see io::Rebalancer) — removing an undrained rf=1 node loses
  /// the only copy.
  Status RemoveNode(NodeId id);

  /// True when `id` was decommissioned via RemoveNode.
  bool NodeIsRemoved(NodeId id) const {
    LH_CHECK(id < node_removed_.size());
    return node_removed_[id].load(std::memory_order_acquire);
  }

  /// Ids of registered, non-removed nodes, ascending. This is the member
  /// list new PlacementMaps are built from.
  std::vector<NodeId> ActiveNodeIds() const;
  uint32_t num_active_nodes() const;

  /// Monotonic placement-epoch counter, bumped once per committed
  /// rebalance (io::Rebalancer). Executors stamp it on broadcast tuples at
  /// fan-out so every node of one job resolves broadcast ownership against
  /// the SAME placement snapshot even when a commit races the run.
  uint64_t placement_epoch() const {
    return placement_epoch_.load(std::memory_order_acquire);
  }
  uint64_t AdvancePlacementEpoch() {
    return placement_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Charge one random record read of `bytes` stored on `storage_node`,
  /// issued by code running on `compute_node`. `outcome` (optional, all
  /// read charges) receives the disk's silent-corruption verdict for a
  /// successful read — see FaultOptions::corruption_rate.
  Status ChargeRandomRead(NodeId compute_node, NodeId storage_node,
                          size_t bytes, ReadOutcome* outcome = nullptr);

  /// Charge one fused batch read resolving `ops` same-partition keys
  /// totalling `bytes` on `storage_node` (one seek + cheap follow-ups; see
  /// Disk::BatchRandomRead). Remote access pays one transfer for the whole
  /// batch — coalescing saves messages as well as seeks.
  Status ChargeBatchRead(NodeId compute_node, NodeId storage_node, size_t ops,
                         size_t bytes, ReadOutcome* outcome = nullptr);

  /// Charge a sequential scan of `bytes` on `storage_node` (plus transfer
  /// when remote).
  Status ChargeSequentialRead(NodeId compute_node, NodeId storage_node,
                              size_t bytes, ReadOutcome* outcome = nullptr);

  /// Charge a write of `bytes` on `storage_node` (structure maintenance):
  /// a replicated write with that one replica.
  Status ChargeWrite(NodeId compute_node, NodeId storage_node, size_t bytes);

  /// Charge a replicated write: the payload is written to EVERY replica
  /// node (disk write each, plus a transfer per remote replica, hop before
  /// write). This is the ingest-side cost of replication_factor > 1 —
  /// durability is paid for up front, not discovered at failover time. The
  /// replicas are submitted in list order and written at once, so a
  /// replicated write takes as long as its slowest replica, not the sum of
  /// them. A removed replica or a failed submission stops the remaining
  /// submissions, and the first error to land is returned once every
  /// submitted replica has landed; it names the failing node so callers
  /// can tell a removed/downed replica from a transient fault. Untimed,
  /// every replica lands before the next is submitted, so the charges and
  /// fault-stream draws are those of writing the replicas one by one.
  Status ChargeReplicatedWrite(NodeId compute_node,
                               const std::vector<NodeId>& replicas,
                               size_t bytes);

  /// Charge a pure control message between two nodes (task shipping,
  /// broadcast fan-out).
  Status ChargeMessage(NodeId from, NodeId to, size_t bytes);

  /// --- Asynchronous charge interface ---------------------------------------
  ///
  /// Async analogues of the Charge* calls: never block, deliver a single
  /// `(tag, Status)` completion on `cq` once the whole charge has landed.
  /// Each blocking Charge* call is its submission plus one wait, so both
  /// share one charging order, fault-stream draws, counters and service
  /// accounting. A remote read's disk leg comes first, and a disk failure
  /// completes without touching the network.
  void SubmitChargeRandomRead(NodeId compute_node, NodeId storage_node,
                              size_t bytes, uint64_t tag, CompletionQueue* cq);
  void SubmitChargeBatchRead(NodeId compute_node, NodeId storage_node,
                             size_t ops, size_t bytes, uint64_t tag,
                             CompletionQueue* cq);
  void SubmitChargeSequentialRead(NodeId compute_node, NodeId storage_node,
                                  size_t bytes, uint64_t tag,
                                  CompletionQueue* cq);

  /// Async analogue of ChargeReplicatedWrite: one completion, carrying the
  /// first error, once every submitted replica has landed.
  void SubmitChargeReplicatedWrite(NodeId compute_node,
                                   const std::vector<NodeId>& replicas,
                                   size_t bytes, uint64_t tag,
                                   CompletionQueue* cq);

  /// The cluster-owned timer thread that retires timed async device
  /// operations. Exposed for executors that need delayed continuations tied
  /// to the simulation's lifetime.
  TimerService* timer_service() { return timers_.get(); }

  /// Sum of all device counters (disks + network).
  ResourceTotals TotalStats() const;

  /// Reset every device counter.
  void ResetStats();

  /// Toggle timing simulation on every device at runtime. Loading and
  /// structure builds typically run untimed; only measured query phases
  /// pay simulated latencies. Nodes joining later inherit the last value.
  void SetTimingEnabled(bool enabled);

  /// Install the same probabilistic fault knobs on every node's disk and
  /// rewind each deterministic fault stream (benches sweep the rate
  /// between measured phases). Per-node disk seeds are derived from
  /// `faults.seed` + node id so that nodes fault independently. Nodes
  /// joining later inherit the last configured knobs.
  void ConfigureDiskFaults(const FaultOptions& faults);

  /// Install fault knobs on the interconnect.
  void ConfigureNetworkFaults(const FaultOptions& faults);

  /// Toggle an outage window on one node: while down, its disk and every
  /// message to or from it fail with kUnavailable — the whole-node failure
  /// mode a production lake must survive.
  void SetNodeOutage(NodeId id, bool down);

  /// Down = in an outage window OR decommissioned. Failover paths treat
  /// both the same way: skip the node, serve from another replica.
  bool NodeIsDown(NodeId id) const {
    LH_CHECK(id < node_down_.size());
    return node_down_[id].load(std::memory_order_relaxed) ||
           node_removed_[id].load(std::memory_order_relaxed);
  }

 private:
  enum class ReadKind : uint8_t { kRandom, kBatch, kSequential };
  /// One read charge: a disk read on `storage`, then one hop when the
  /// reader runs on another node. A blocking read keeps it on its stack;
  /// an async remote read allocates it and it is deleted when it finishes.
  struct ReadOp {
    ReadOp(ReadKind k, NodeId c, NodeId s, size_t n, size_t b,
           uint64_t t = 0, CompletionQueue* q = nullptr)
        : kind(k), compute(c), storage(s), ops(n), bytes(b), tag(t), cq(q) {}

    ReadKind kind;
    NodeId compute;
    NodeId storage;
    size_t ops;
    size_t bytes;
    uint64_t tag;
    CompletionQueue* cq;
    /// The disk leg's corruption verdict: the hop transfers the (already
    /// rotten) bytes, and the final completion must still report them.
    ReadOutcome outcome;
    bool owned = false;
  };

  /// Build and install the node for slot `id` (membership lock held).
  void InitNodeSlot(NodeId id);
  /// Blocking read: submit `op`, wait once for its final completion.
  Status ChargeRead(ReadOp op, ReadOutcome* outcome);
  /// Async read: `op` is copied to the heap only when remote.
  void SubmitRead(ReadOp op);
  /// Submit `op`'s disk leg. A local read's leg completes to the caller;
  /// a remote read's leg reports to `chain_disk_cq_`, tagged with `op`.
  void StartRead(ReadOp* op);
  /// `chain_disk_cq_`'s listener: a failed disk leg finishes the read, a
  /// landed one launches the hop.
  void OnChainDiskDone(const Completion& c);
  /// Deliver the caller's completion (and free a heap `op`); the landed
  /// hop's path through `chain_net_cq_`.
  static void FinishRead(ReadOp* op, Status status);

  ClusterOptions options_;
  /// Pre-sized to max_nodes; slots [0, num_nodes_) are populated. The
  /// vector itself never reallocates, which is what makes concurrent
  /// lock-free reads of registered slots safe during AddNode.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Network> network_;
  std::vector<std::atomic<bool>> node_down_;
  std::vector<std::atomic<bool>> node_removed_;
  std::atomic<uint32_t> num_nodes_{0};
  std::atomic<uint64_t> placement_epoch_{0};

  /// Guards membership changes and the "current knobs" below, which late
  /// joiners inherit.
  mutable std::mutex membership_mutex_;
  FaultOptions current_disk_faults_;
  bool fault_knobs_set_ = false;
  bool timing_enabled_;

  /// Internal completion queues chaining remote reads: the disk leg's
  /// completion launches the hop, and the hop's completion finishes the
  /// read. Listener-mode queues (lock-free Push), built with their
  /// listeners at construction; the listeners only route/delete read state
  /// — they never run user continuations.
  CompletionQueue chain_disk_cq_;
  CompletionQueue chain_net_cq_;
  /// Declared last so it is destroyed first: pending timer closures
  /// reference disks and the chain queues above.
  std::unique_ptr<TimerService> timers_;
};

}  // namespace lakeharbor::sim
