// Batching + record-cache ablation: sweep dereference batch size × record
// cache budget over the two pointer-chasing workloads — TPC-H Q5' (index
// range scan into a 6-table join chain) and the claims warehouse Q1
// (disease index → diagnosis → prescription index → claims) — and measure
// the simulated random-read counters the features exist to shrink.
//
// Each cell runs on a fresh SmpeExecutor (cold cache) and reports the
// device-counter delta of its own run. Batching fuses same-partition
// pointer groups into one seek-dominated device operation (batched_ops -
// batched_reads = reads saved); the cache short-circuits repeat pointer
// resolutions entirely. Correctness: every cell's result summary must equal
// the baseline (batch off, cache off) cell's.
//
// Output: one JSON object per (workload, batch, cache) cell on stdout, and
// the same lines written to BENCH_batch_cache.json (override with
// LH_BENCH_OUT) so the perf trajectory accumulates across revisions.
//
// Env overrides: LH_BENCH_NODES, LH_BENCH_SF, LH_BENCH_THREADS,
// LH_BENCH_CLAIMS, LH_BENCH_OUT.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/json.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

namespace {

struct CellResult {
  uint64_t rows = 0;
  std::string checksum;
  uint64_t random_reads = 0;
  uint64_t batched_reads = 0;
  uint64_t batched_ops = 0;
  uint64_t deref_batches = 0;
  uint64_t deref_batched_pointers = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_admissions = 0;
  uint64_t cache_evictions = 0;
  double wall_ms = 0.0;
};

void EmitJson(bench::Ledger& ledger, const std::string& workload, size_t batch,
              size_t cache_budget, const CellResult& r) {
  Json row = Json::MakeObject();
  row.Set("bench", Json::MakeString("batch_cache"));
  row.Set("workload", Json::MakeString(workload));
  row.Set("batch_size", Json::MakeNumber(static_cast<double>(batch)));
  row.Set("cache_budget_bytes",
          Json::MakeNumber(static_cast<double>(cache_budget)));
  row.Set("rows", Json::MakeNumber(static_cast<double>(r.rows)));
  row.Set("checksum", Json::MakeString(r.checksum));
  row.Set("random_reads",
          Json::MakeNumber(static_cast<double>(r.random_reads)));
  row.Set("batched_reads",
          Json::MakeNumber(static_cast<double>(r.batched_reads)));
  row.Set("batched_ops", Json::MakeNumber(static_cast<double>(r.batched_ops)));
  row.Set("deref_batches",
          Json::MakeNumber(static_cast<double>(r.deref_batches)));
  row.Set("deref_batched_pointers",
          Json::MakeNumber(static_cast<double>(r.deref_batched_pointers)));
  row.Set("cache_hits", Json::MakeNumber(static_cast<double>(r.cache_hits)));
  row.Set("cache_misses",
          Json::MakeNumber(static_cast<double>(r.cache_misses)));
  row.Set("cache_admissions",
          Json::MakeNumber(static_cast<double>(r.cache_admissions)));
  row.Set("cache_evictions",
          Json::MakeNumber(static_cast<double>(r.cache_evictions)));
  row.Set("wall_ms", Json::MakeNumber(r.wall_ms));
  std::string line = row.Dump();
  std::printf("%s\n", line.c_str());
  ledger.Add(line);
}

/// Order-independent digest of a result summary's key strings.
std::string DigestKeys(uint64_t rows, const std::vector<std::string>& keys) {
  uint64_t digest = 1469598103934665603ull;  // FNV offset basis
  for (const std::string& key : keys) {
    digest ^= std::hash<std::string>{}(key);
    digest *= 1099511628211ull;  // FNV prime (keys arrive sorted)
  }
  return std::to_string(rows) + ":" + std::to_string(digest);
}

/// One sweep over batch × cache for a prepared (cluster, job, summarize)
/// workload. Returns the baseline (off/off) random-read count and the best
/// (batch+cache on) one for the footer ratio.
struct SweepOutcome {
  uint64_t baseline_reads = 0;
  uint64_t best_reads = 0;
};

SweepOutcome RunSweep(
    bench::Ledger& ledger, const std::string& workload, sim::Cluster& cluster,
    const rede::SmpeOptions& base_options, const rede::Job& job,
    const std::function<std::string(const std::vector<rede::Tuple>&,
                                    uint64_t*)>& summarize,
    bench::TraceCapture& trace_capture) {
  const size_t batch_sizes[] = {0, 8, 32, 128};
  const size_t cache_budgets[] = {0, 1ull << 20, 32ull << 20};
  SweepOutcome outcome;
  std::string baseline_checksum;
  for (size_t batch : batch_sizes) {
    for (size_t budget : cache_budgets) {
      rede::SmpeOptions options = base_options;
      options.trace_sample_n = trace_capture.sample_n();
      options.batch.enabled = batch > 0;
      if (batch > 0) options.batch.max_batch_size = batch;
      options.cache.enabled = budget > 0;
      if (budget > 0) options.cache.byte_budget = budget;
      rede::SmpeExecutor executor(&cluster, options);

      sim::ResourceTotals before = cluster.TotalStats();
      rede::TupleCollector collector;
      auto result = executor.Execute(job, collector.AsSink());
      LH_CHECK_MSG(result.ok(), result.status().ToString().c_str());
      trace_capture.Observe(*result, workload + " batch=" +
                                         std::to_string(batch) + " budget=" +
                                         std::to_string(budget));
      sim::ResourceTotals after = cluster.TotalStats();

      CellResult cell;
      std::vector<rede::Tuple> tuples = collector.TakeTuples();
      cell.checksum = summarize(tuples, &cell.rows);
      cell.random_reads = after.random_reads - before.random_reads;
      cell.batched_reads = after.batched_reads - before.batched_reads;
      cell.batched_ops = after.batched_ops - before.batched_ops;
      cell.deref_batches = result->metrics.deref_batches;
      cell.deref_batched_pointers = result->metrics.deref_batched_pointers;
      cell.cache_hits = result->metrics.cache_hits;
      cell.cache_misses = result->metrics.cache_misses;
      cell.cache_admissions = result->metrics.cache_admissions;
      cell.cache_evictions = result->metrics.cache_evictions;
      cell.wall_ms = result->metrics.wall_ms;
      EmitJson(ledger, workload, batch, budget, cell);

      if (batch == 0 && budget == 0) {
        outcome.baseline_reads = cell.random_reads;
        baseline_checksum = cell.checksum;
      } else {
        LH_CHECK_MSG(cell.checksum == baseline_checksum,
                     (workload + ": cell result diverged from baseline").c_str());
      }
      if (batch == batch_sizes[3] && budget == cache_budgets[2]) {
        outcome.best_reads = cell.random_reads;
      }
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceCapture trace_capture(argc, argv);
  bench::BenchClusterConfig cluster_config;
  cluster_config.num_nodes =
      static_cast<uint32_t>(bench::EnvOr("LH_BENCH_NODES", 8));

  rede::EngineOptions engine_options;
  engine_options.smpe.threads_per_node =
      static_cast<size_t>(bench::EnvOr("LH_BENCH_THREADS", 64));

  // TPC-H Q5' workload.
  sim::Cluster tpch_cluster(bench::MakeClusterOptions(cluster_config));
  rede::Engine tpch_engine(&tpch_cluster, engine_options);
  tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.005);
  tpch::TpchData tpch_data = tpch::Generate(tpch_config);
  tpch::LoadOptions load;
  load.partitions = tpch_cluster.num_nodes() * 2;
  LH_CHECK(tpch::LoadIntoLake(tpch_engine, tpch_data, load).ok());
  tpch::Q5Params q5_params = tpch::MakeQ5Params(0.05);
  auto q5_job = tpch::BuildQ5RedeJob(tpch_engine, q5_params);
  LH_CHECK(q5_job.ok());

  // Claims warehouse workload (the join-back deployment: dimension rows are
  // re-dereferenced per probe, which is what the cache targets).
  sim::Cluster claims_cluster(bench::MakeClusterOptions(cluster_config));
  rede::Engine claims_engine(&claims_cluster, engine_options);
  claims::ClaimsConfig claims_config;
  claims_config.num_claims =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_CLAIMS", 20000));
  claims::ClaimsData claims_data = claims::GenerateClaims(claims_config);
  LH_CHECK(claims::LoadWarehouseClaims(claims_engine, claims_data).ok());
  auto claims_job =
      claims::BuildWarehouseClaimsJob(claims_engine, claims::Q1());
  LH_CHECK(claims_job.ok());

  bench::Ledger ledger("BENCH_batch_cache.json");

  bench::PrintHeader(
      "Batch + cache ablation — dereference batching and the node-local "
      "record cache");
  std::printf("nodes=%u  SF=%.4f  claims=%llu  smpe-threads/node=%zu\n\n",
              cluster_config.num_nodes, tpch_config.scale_factor,
              static_cast<unsigned long long>(claims_config.num_claims),
              engine_options.smpe.threads_per_node);

  auto q5 = RunSweep(
      ledger, "tpch_q5", tpch_cluster, engine_options.smpe, *q5_job,
      [](const std::vector<rede::Tuple>& tuples, uint64_t* rows) {
        auto summary = tpch::SummarizeRedeOutput(tuples);
        LH_CHECK(summary.ok());
        *rows = summary->rows;
        return DigestKeys(summary->rows, summary->keys);
      },
      trace_capture);
  auto claims = RunSweep(
      ledger, "claims_wh_q1", claims_cluster, engine_options.smpe, *claims_job,
      [](const std::vector<rede::Tuple>& tuples, uint64_t* rows) {
        auto answer = claims::SummarizeWarehouseOutput(tuples);
        LH_CHECK(answer.ok());
        *rows = answer->distinct_claims;
        return std::to_string(answer->distinct_claims) + ":" +
               std::to_string(answer->total_expense);
      },
      trace_capture);

  auto ratio = [](const SweepOutcome& o) {
    return o.best_reads > 0
               ? static_cast<double>(o.baseline_reads) /
                     static_cast<double>(o.best_reads)
               : 0.0;
  };
  std::printf(
      "\nrandom-read reduction (baseline / batch=128+cache=32MB): "
      "tpch_q5 %.2fx (%llu -> %llu), claims_wh_q1 %.2fx (%llu -> %llu)\n",
      ratio(q5), static_cast<unsigned long long>(q5.baseline_reads),
      static_cast<unsigned long long>(q5.best_reads), ratio(claims),
      static_cast<unsigned long long>(claims.baseline_reads),
      static_cast<unsigned long long>(claims.best_reads));
  std::printf(
      "Expected shape: every cell's checksum equals its workload's baseline "
      "cell; random_reads falls monotonically-ish as batch size and cache "
      "budget grow, with the combined best cell at >= 2x fewer reads than "
      "the baseline on tpch_q5. Wrote %zu-cell JSON to the output file.\n",
      static_cast<size_t>(24));
  ledger.Commit();
  return 0;
}
