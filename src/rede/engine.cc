#include "rede/engine.h"

namespace lakeharbor::rede {

namespace {
/// Build the SMPE-mode executor selected by options.engine.
std::unique_ptr<AsyncExecutor> MakeSmpeExecutor(sim::Cluster* cluster,
                                                const SmpeOptions& options) {
  if (options.engine == SmpeEngine::kAsync) {
    return std::make_unique<AsyncExecutor>(cluster, options);
  }
  return std::make_unique<SmpeExecutor>(cluster, options);
}
}  // namespace

const char* ExecutionModeToString(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSmpe:
      return "smpe";
    case ExecutionMode::kPartitioned:
      return "partitioned";
  }
  return "?";
}

Engine::Engine(sim::Cluster* cluster, EngineOptions options)
    : cluster_(cluster),
      index_builder_(&catalog_),
      smpe_executor_(MakeSmpeExecutor(cluster, options.smpe)),
      // Both execution modes share one retry policy, cache config, and
      // trace-sampling cadence, so ExecuteCollect comparisons across modes
      // see identical failure, caching, and observability semantics (each
      // executor still owns a separate cache and run counter).
      partitioned_executor_(cluster, options.smpe.retry, options.smpe.cache,
                            options.smpe.trace_sample_n) {
  LH_CHECK(cluster_ != nullptr);
}

StatusOr<std::shared_ptr<io::BtreeFile>> Engine::BuildStructure(
    const index::IndexSpec& spec, const std::string& attribute) {
  index::IndexMeta meta;
  meta.index_name = spec.index_name;
  meta.base_file = spec.base_file;
  meta.attribute = attribute;
  meta.placement = spec.placement;
  meta.state = index::IndexMeta::State::kBuilding;
  LH_RETURN_NOT_OK(index_catalog_.Add(meta));
  auto result = index_builder_.Build(spec);
  LH_RETURN_NOT_OK(index_catalog_.SetState(
      spec.index_name, result.ok() ? index::IndexMeta::State::kReady
                                   : index::IndexMeta::State::kFailed));
  return result;
}

StatusOr<JobResult> Engine::Execute(const Job& job, ExecutionMode mode,
                                    const ResultSink& sink,
                                    CancelToken* cancel) {
  switch (mode) {
    case ExecutionMode::kSmpe:
      return smpe_executor_->Execute(job, sink, cancel);
    case ExecutionMode::kPartitioned:
      return partitioned_executor_.Execute(job, sink, cancel);
  }
  return Status::InvalidArgument("unknown execution mode");
}

StatusOr<CollectedResult> Engine::ExecuteCollect(const Job& job,
                                                 ExecutionMode mode) {
  TupleCollector collector;
  LH_ASSIGN_OR_RETURN(JobResult result, Execute(job, mode, collector.AsSink()));
  CollectedResult collected;
  collected.tuples = collector.TakeTuples();
  collected.metrics = result.metrics;
  collected.trace = result.trace;
  return collected;
}

}  // namespace lakeharbor::rede
