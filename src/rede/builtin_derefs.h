#pragma once

#include <memory>
#include <string>

#include "index/bloom.h"
#include "io/partitioned_file.h"
#include "rede/functions.h"
#include "rede/stage_function.h"

/// \file builtin_derefs.h
/// Pre-defined Dereferencers (§III-B). "Every Dereferencer manages either a
/// File or a BtreeFile to access"; the optional Filter drops fetched tuples
/// whose schema-on-read predicate fails.

namespace lakeharbor::rede {

/// Point dereference: resolve the tuple's pending pointer against `file`.
/// A keyed pointer is routed through the file's partitioner (cross-
/// partition accesses pay network cost); a broadcast copy (resolve_local)
/// is resolved against every partition of `file` local to the executing
/// node. Fetched records are appended to the bundle, one output tuple per
/// record.
///
/// `bloom` (optional) is a per-partition membership structure over the
/// file's in-partition keys: during broadcast resolution, partitions whose
/// filter rules the key out are skipped without a device probe (counted in
/// the file's AccessStats::bloom_skips). Keyed lookups ignore it.
StageFunctionPtr MakePointDereferencer(
    std::string name, std::shared_ptr<io::File> file, Filter filter = nullptr,
    std::shared_ptr<const index::PartitionBloom> bloom = nullptr);

/// How a range dereferencer resolves a range pointer that carries no
/// partition information.
enum class RangeRouting {
  /// The paper's default: the executor broadcasts the tuple and every node
  /// probes its local partitions — required for local secondary indexes
  /// and for hash-partitioned structures, where a key range can live
  /// anywhere.
  kBroadcast,
  /// Partition pruning: the structure is partitioned *by the indexed key*
  /// with an order-preserving (range) partitioner, so only the partitions
  /// intersecting [lo, hi] are probed, from the executing node. No
  /// broadcast happens.
  kPruneByKeyRange,
};

/// Range dereference over a BtreeFile: resolve [pointer, pointer_hi]. A
/// partitioned range stays within the partition of its partition key; a
/// partition-less range is routed per `routing`.
StageFunctionPtr MakeRangeDereferencer(
    std::string name, std::shared_ptr<io::BtreeFile> file,
    Filter filter = nullptr, RangeRouting routing = RangeRouting::kBroadcast);

}  // namespace lakeharbor::rede
