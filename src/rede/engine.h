#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "index/index_catalog.h"
#include "io/catalog.h"
#include "rede/executor.h"
#include "rede/partitioned_executor.h"
#include "rede/smpe_executor.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {

/// Which execution strategy to use (the Fig 7 contrast).
enum class ExecutionMode {
  kSmpe,         ///< scalable massively parallel execution (Algorithm 1)
  kPartitioned,  ///< structures + partitioned parallelism only
};

const char* ExecutionModeToString(ExecutionMode mode);

struct EngineOptions {
  SmpeOptions smpe;
};

/// Materialized job output, for callers that want tuples in hand.
struct CollectedResult {
  std::vector<Tuple> tuples;
  MetricsSnapshot metrics;
  /// The run's span trace when it was traced (SmpeOptions::trace_sample_n),
  /// nullptr otherwise. Profile with rede::ProfileOf.
  std::shared_ptr<const obs::TraceLog> trace;
};

/// Build the query profile of a traced collected run (empty otherwise).
inline obs::JobProfile ProfileOf(const CollectedResult& result) {
  JobResult as_job;
  as_job.metrics = result.metrics;
  as_job.trace = result.trace;
  return ProfileOf(as_job);
}

/// The ReDe engine facade: one simulated cluster, a file catalog, the
/// structure-maintenance machinery, and the two executors. This is the
/// top-level public API — see examples/quickstart.cpp for the intended
/// usage pattern:
///
///   sim::Cluster cluster(cluster_options);
///   rede::Engine engine(&cluster);
///   ... load raw files into engine.catalog() ...
///   ... register access methods, build structures via engine ...
///   LH_ASSIGN_OR_RETURN(Job job, JobBuilder("q").... .Build());
///   LH_ASSIGN_OR_RETURN(CollectedResult r,
///                       engine.ExecuteCollect(job, ExecutionMode::kSmpe));
class Engine {
 public:
  explicit Engine(sim::Cluster* cluster, EngineOptions options = {});
  LH_DISALLOW_COPY_AND_ASSIGN(Engine);

  sim::Cluster& cluster() { return *cluster_; }
  io::Catalog& catalog() { return catalog_; }
  index::IndexBuilder& index_builder() { return index_builder_; }
  index::IndexCatalog& index_catalog() { return index_catalog_; }

  /// Register an access-method definition: build the structure described
  /// by `spec` (synchronously) and record it in the index catalog under
  /// `attribute`. This is the paradigm's "post hoc definition of access
  /// methods" entry point.
  StatusOr<std::shared_ptr<io::BtreeFile>> BuildStructure(
      const index::IndexSpec& spec, const std::string& attribute);

  /// Execute a job, streaming outputs into `sink` (nullable). `cancel`
  /// optionally injects an external CancelToken (see Executor::Execute).
  StatusOr<JobResult> Execute(const Job& job, ExecutionMode mode,
                              const ResultSink& sink = nullptr,
                              CancelToken* cancel = nullptr);

  /// Execute and materialize output tuples.
  StatusOr<CollectedResult> ExecuteCollect(const Job& job, ExecutionMode mode);

  /// The executor behind `mode` — what a sched::JobScheduler fronts when
  /// scheduling jobs of this engine. In SMPE mode SmpeOptions::engine picks
  /// the capped SmpeExecutor or the uncapped AsyncExecutor.
  Executor& executor(ExecutionMode mode) {
    return mode == ExecutionMode::kSmpe
               ? *smpe_executor_
               : static_cast<Executor&>(partitioned_executor_);
  }

  /// The SMPE executor's record cache (nullptr when caching is off) — for
  /// cross-checking per-job cache attribution against global counters.
  RecordCache* smpe_record_cache() const {
    return smpe_executor_->record_cache();
  }

 private:
  sim::Cluster* cluster_;
  io::Catalog catalog_;
  index::IndexBuilder index_builder_;
  index::IndexCatalog index_catalog_;
  /// SmpeExecutor or AsyncExecutor, per SmpeOptions::engine.
  std::unique_ptr<AsyncExecutor> smpe_executor_;
  PartitionedExecutor partitioned_executor_;
};

}  // namespace lakeharbor::rede
