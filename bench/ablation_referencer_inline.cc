// Ablation: the paper's Referencer-inlining optimization (§III-C — "ReDe
// does not switch threads for Referencers by default to avoid excessive
// context switching because Referencers do not usually incur IO").
//
// Runs the same Q5' job, device timing on, on the SMPE engine (capped at
// 125 tasks per node) with Referencers inlined — run by the worker that
// routes the emitting task's output — vs dispatched as task frames of
// their own, handed to a worker like any Dereferencer task. Both return
// the same rows and run the same Referencer invocations (the rows and
// ref-invocs columns); wall-ms shows what each way of running them costs.

#include <cstdio>

#include "bench/bench_util.h"
#include "rede/smpe_executor.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

int main(int argc, char** argv) {
  bench::TraceCapture trace_capture(argc, argv);
  bench::BenchClusterConfig cluster_config;
  sim::Cluster cluster(bench::MakeClusterOptions(cluster_config));
  rede::Engine engine(&cluster);

  tpch::TpchConfig config;
  config.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.005);
  tpch::TpchData data = tpch::Generate(config);
  LH_CHECK(tpch::LoadIntoLake(engine, data).ok());

  bench::PrintHeader("Ablation — inline vs dispatched Referencers (Q5')");
  std::printf("%-12s %-12s %12s %12s %14s %10s\n", "selectivity", "refs",
              "wall-ms", "rows", "ref-invocs", "peak-par");

  cluster.SetTimingEnabled(true);
  for (double selectivity : {0.003, 0.03, 0.3}) {
    tpch::Q5Params params = tpch::MakeQ5Params(selectivity);
    auto job = tpch::BuildQ5RedeJob(engine, params);
    LH_CHECK(job.ok());
    for (bool inline_refs : {true, false}) {
      rede::SmpeOptions options;
      options.threads_per_node = 125;
      options.inline_referencers = inline_refs;
      options.trace_sample_n = trace_capture.sample_n();
      rede::SmpeExecutor executor(&cluster, options);
      uint64_t rows = 0;
      auto result =
          executor.Execute(*job, [&rows](const rede::Tuple&) { ++rows; });
      LH_CHECK(result.ok());
      trace_capture.Observe(*result, inline_refs ? "Q5' inline refs"
                                                 : "Q5' dispatched refs");
      std::printf("%-12.0e %-12s %12.2f %12llu %14llu %10lld\n", selectivity,
                  inline_refs ? "inline" : "dispatched",
                  result->metrics.wall_ms,
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(
                      result->metrics.ref_invocations),
                  static_cast<long long>(
                      result->metrics.peak_parallel_derefs));
    }
  }
  std::printf(
      "\nWithin each selectivity both variants return the same rows and run "
      "the same Referencer invocations; wall-ms compares inline with "
      "dispatched Referencers.\n");
  return 0;
}
