#pragma once

#include "rede/async_executor.h"

namespace lakeharbor::rede {

/// Scalable Massively Parallel Execution (Algorithm 1) with the paper's
/// per-node pool size: the one continuation engine (async_executor.h),
/// capped at `threads_per_node` running tasks per node. The cap is shared
/// by the executor's overlapping runs and starts no thread; tasks beyond it
/// wait in their node's FIFO. SmpeEngine::kThreaded selects this executor.
class SmpeExecutor final : public AsyncExecutor {
 public:
  SmpeExecutor(sim::Cluster* cluster, SmpeOptions options);
};

}  // namespace lakeharbor::rede
