#include "rede/smpe_executor.h"

namespace lakeharbor::rede {

SmpeExecutor::SmpeExecutor(sim::Cluster* cluster, SmpeOptions options)
    : AsyncExecutor(cluster, options, options.threads_per_node, "rede-smpe") {
  LH_CHECK_MSG(options.threads_per_node > 0,
               "SMPE needs at least one task slot per node");
}

}  // namespace lakeharbor::rede
