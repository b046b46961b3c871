// Failover ablation: sweep replication factor × outage timing × hedged
// reads over the two pointer-chasing workloads — TPC-H Q5' and the claims
// warehouse Q1 — and measure what surviving a whole-node outage costs.
//
// Grid per workload (the rf=1 hedge cells are no-ops and skipped):
//   rf=1: outage {none, mid}             — the unreplicated seed layout;
//                                          a mid-query outage FAILS the job
//   rf=2: outage {none, mid, slow} × hedge {off, on}
//
// `slow` keeps the victim alive but spikes every read of its disk 100x for
// the whole query: the tail that hedged reads exist for. Its hedged cell
// must adopt second arms (hedge_wins > 0) and keep the baseline checksum.
//
// The mid-query outage is driven by the run's device reads: once the run
// has issued half of the baseline cell's random reads, one node drops dead
// under the remaining half of the query. (Output rows are no clock for it:
// timed, Q5' can emit half its rows after its last read on the victim.)
// With replicas, dereferences fail over to the surviving copy BEFORE any
// retry backoff (retries stay disabled here) and the run completes with
// the baseline checksum; without, the run aborts kUnavailable — the
// contrast the `completed` column records.
//
// `added_reads` is the random-read delta vs the workload's rf=1/no-failure
// baseline: what replication (remote replica reads) and hedging (duplicate
// in-flight reads) cost in device operations. Loading is untimed; every
// measured cell runs with device timing on at kTimeScale, the scale of the
// hedge tests, so `wall_ms` is simulated device time plus engine overhead,
// and a hedged cell's `wall_ms` next to its unhedged twin's is what
// hedging buys or costs.
//
// Output: one JSON object per cell on stdout, mirrored to
// BENCH_failover.json (override with LH_BENCH_OUT).
//
// Env overrides: LH_BENCH_NODES, LH_BENCH_SF, LH_BENCH_THREADS,
// LH_BENCH_CLAIMS, LH_BENCH_HEDGE_US, LH_BENCH_OUT.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/json.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "sim/fault.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

namespace {

constexpr sim::NodeId kVictim = 1;
/// Device time scale of the measured cells: a 500 µs read takes 25 µs.
constexpr double kTimeScale = 0.05;

struct CellResult {
  bool completed = false;
  uint64_t rows = 0;
  std::string checksum;
  std::string error;
  uint64_t random_reads = 0;
  int64_t added_reads = 0;
  uint64_t failovers = 0;
  uint64_t replica_reads = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  uint64_t broadcast_redirects = 0;
  double wall_ms = 0.0;
};

void EmitJson(bench::Ledger& ledger, const std::string& workload, uint32_t rf,
              const char* outage, bool hedge, const CellResult& r) {
  Json row = Json::MakeObject();
  row.Set("bench", Json::MakeString("failover"));
  row.Set("workload", Json::MakeString(workload));
  row.Set("replication_factor", Json::MakeNumber(static_cast<double>(rf)));
  row.Set("outage", Json::MakeString(outage));
  row.Set("hedge", Json::MakeNumber(hedge ? 1 : 0));
  row.Set("completed", Json::MakeNumber(r.completed ? 1 : 0));
  row.Set("rows", Json::MakeNumber(static_cast<double>(r.rows)));
  row.Set("checksum", Json::MakeString(r.checksum));
  row.Set("error", Json::MakeString(r.error));
  row.Set("random_reads",
          Json::MakeNumber(static_cast<double>(r.random_reads)));
  row.Set("added_reads", Json::MakeNumber(static_cast<double>(r.added_reads)));
  row.Set("failovers", Json::MakeNumber(static_cast<double>(r.failovers)));
  row.Set("replica_reads",
          Json::MakeNumber(static_cast<double>(r.replica_reads)));
  row.Set("hedged_reads",
          Json::MakeNumber(static_cast<double>(r.hedged_reads)));
  row.Set("hedge_wins", Json::MakeNumber(static_cast<double>(r.hedge_wins)));
  row.Set("broadcast_redirects",
          Json::MakeNumber(static_cast<double>(r.broadcast_redirects)));
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

using Summarize = std::function<std::string(const std::vector<rede::Tuple>&,
                                            uint64_t*)>;

/// Run one cell. `outage_after` > 0 arms the outage: once the run has
/// issued that many random reads, kVictim drops dead for the rest of it.
/// `slow` spikes every read of kVictim's disk 100x for the whole run.
CellResult RunCell(sim::Cluster& cluster, const rede::SmpeOptions& options,
                   const rede::Job& job, const Summarize& summarize,
                   uint64_t outage_after, bool slow,
                   bench::TraceCapture& trace_capture,
                   const std::string& cell_label) {
  rede::SmpeExecutor executor(&cluster, options);
  if (slow) {
    sim::FaultOptions spike;
    spike.latency_spike_rate = 1.0;
    spike.latency_spike_multiplier = 100.0;
    cluster.node(kVictim).disk().ConfigureFaults(spike);
  }
  rede::TupleCollector collector;
  sim::ResourceTotals before = cluster.TotalStats();
  std::atomic<bool> done{false};
  std::thread watcher;
  if (outage_after > 0) {
    watcher = std::thread([&] {
      while (!done.load()) {
        if (cluster.TotalStats().random_reads - before.random_reads >=
            outage_after) {
          cluster.SetNodeOutage(kVictim, true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  auto result = executor.Execute(job, collector.AsSink());
  done.store(true);
  if (watcher.joinable()) watcher.join();
  sim::ResourceTotals after = cluster.TotalStats();
  cluster.SetNodeOutage(kVictim, false);
  if (slow) cluster.node(kVictim).disk().ConfigureFaults(sim::FaultOptions{});

  CellResult cell;
  cell.random_reads = after.random_reads - before.random_reads;
  if (!result.ok()) {
    cell.error = result.status().ToString();
    return cell;
  }
  cell.completed = true;
  trace_capture.Observe(*result, cell_label);
  std::vector<rede::Tuple> tuples = collector.TakeTuples();
  cell.checksum = summarize(tuples, &cell.rows);
  cell.failovers = result->metrics.failovers;
  cell.replica_reads = result->metrics.replica_reads;
  cell.hedged_reads = result->metrics.hedged_reads;
  cell.hedge_wins = result->metrics.hedge_wins;
  cell.broadcast_redirects = result->metrics.broadcast_redirects;
  cell.wall_ms = result->metrics.wall_ms;
  return cell;
}

/// Everything needed to run one workload at one replication factor.
struct Workload {
  std::string name;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<rede::Engine> engine;
  std::unique_ptr<rede::Job> job;
  Summarize summarize;
};

struct SweepStats {
  uint64_t cells = 0;
  uint64_t completed = 0;
  uint64_t rf1_outage_failures = 0;
  uint64_t rf2_outage_completions = 0;
  /// Workloads whose slow hedged cell won hedges at the baseline checksum.
  uint64_t slow_hedge_wins = 0;
  bool checksums_agree = true;
};

/// Sweep one workload at one rf; `baseline` carries the rf=1/none cell's
/// reads+checksum across calls (filled on the rf=1 pass, read on rf=2).
void RunSweep(bench::Ledger& ledger, Workload& w, uint32_t rf,
              const rede::SmpeOptions& base_options, uint64_t hedge_us,
              CellResult* baseline, SweepStats* stats,
              bench::TraceCapture& trace_capture) {
  for (const char* outage : {"none", "mid", "slow"}) {
    const bool mid = std::string(outage) == "mid";
    const bool slow = std::string(outage) == "slow";
    if (slow && rf < 2) continue;
    for (int hedge = 0; hedge < (rf >= 2 ? 2 : 1); ++hedge) {
      rede::SmpeOptions options = base_options;
      options.trace_sample_n = trace_capture.sample_n();
      options.hedge.enabled = hedge != 0;
      options.hedge.deadline_us = hedge_us;
      // The rf=1/none cell runs first and fills `baseline`, so every mid
      // cell (including rf=1's own) sees the true halfway read count.
      const uint64_t half = (baseline->random_reads + 1) / 2;
      const uint64_t outage_after = mid ? (half > 0 ? half : 1) : 0;
      CellResult cell =
          RunCell(*w.cluster, options, *w.job, w.summarize, outage_after,
                  slow, trace_capture,
                  w.name + " rf=" + std::to_string(rf) + " outage=" + outage +
                      (hedge != 0 ? " hedged" : ""));
      if (rf == 1 && !mid && hedge == 0 && baseline->checksum.empty()) {
        *baseline = cell;
      }
      cell.added_reads = static_cast<int64_t>(cell.random_reads) -
                         static_cast<int64_t>(baseline->random_reads);
      EmitJson(ledger, w.name, rf, outage, hedge != 0, cell);

      stats->cells++;
      if (cell.completed) stats->completed++;
      if (rf == 1 && mid && !cell.completed) stats->rf1_outage_failures++;
      if (rf == 2 && mid && cell.completed) stats->rf2_outage_completions++;
      if (slow && hedge != 0 && cell.completed && cell.hedge_wins > 0 &&
          cell.checksum == baseline->checksum) {
        stats->slow_hedge_wins++;
      }
      if (cell.completed && !baseline->checksum.empty() &&
          cell.checksum != baseline->checksum) {
        stats->checksums_agree = false;
      }
    }
  }
}

/// The bench cluster, untimed for loading, at device time scale kTimeScale.
std::unique_ptr<sim::Cluster> MakeCluster(
    const bench::BenchClusterConfig& cluster_config) {
  sim::ClusterOptions options = bench::MakeClusterOptions(cluster_config);
  options.EnableTiming(false, kTimeScale);
  return std::make_unique<sim::Cluster>(options);
}

Workload MakeTpch(const bench::BenchClusterConfig& cluster_config,
                  const rede::EngineOptions& engine_options,
                  const tpch::TpchData& data, uint32_t rf) {
  Workload w;
  w.name = "tpch_q5";
  w.cluster = MakeCluster(cluster_config);
  w.engine = std::make_unique<rede::Engine>(w.cluster.get(), engine_options);
  tpch::LoadOptions load;
  load.partitions = w.cluster->num_nodes() * 2;
  load.replication_factor = rf;
  LH_CHECK(tpch::LoadIntoLake(*w.engine, data, load).ok());
  auto job = tpch::BuildQ5RedeJob(*w.engine, tpch::MakeQ5Params(0.05));
  LH_CHECK(job.ok());
  w.job = std::make_unique<rede::Job>(*job);
  w.summarize = [](const std::vector<rede::Tuple>& tuples, uint64_t* rows) {
    auto summary = tpch::SummarizeRedeOutput(tuples);
    LH_CHECK(summary.ok());
    *rows = summary->rows;
    return DigestKeys(summary->rows, summary->keys);
  };
  return w;
}

Workload MakeClaims(const bench::BenchClusterConfig& cluster_config,
                    const rede::EngineOptions& engine_options,
                    const claims::ClaimsData& data, uint32_t rf) {
  Workload w;
  w.name = "claims_wh_q1";
  w.cluster = MakeCluster(cluster_config);
  w.engine = std::make_unique<rede::Engine>(w.cluster.get(), engine_options);
  claims::ClaimsLoadOptions load;
  load.replication_factor = rf;
  LH_CHECK(claims::LoadWarehouseClaims(*w.engine, data, load).ok());
  auto job = claims::BuildWarehouseClaimsJob(*w.engine, claims::Q1());
  LH_CHECK(job.ok());
  w.job = std::make_unique<rede::Job>(*job);
  w.summarize = [](const std::vector<rede::Tuple>& tuples, uint64_t* rows) {
    auto answer = claims::SummarizeWarehouseOutput(tuples);
    LH_CHECK(answer.ok());
    *rows = answer->distinct_claims;
    return std::to_string(answer->distinct_claims) + ":" +
           std::to_string(answer->total_expense);
  };
  return w;
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
  const uint64_t hedge_us =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_HEDGE_US", 0));

  tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.005);
  tpch::TpchData tpch_data = tpch::Generate(tpch_config);

  claims::ClaimsConfig claims_config;
  claims_config.num_claims =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_CLAIMS", 20000));
  claims::ClaimsData claims_data = claims::GenerateClaims(claims_config);

  bench::Ledger ledger("BENCH_failover.json");

  bench::PrintHeader(
      "Failover ablation — replication factor x outage timing x hedged "
      "reads");
  std::printf(
      "nodes=%u  SF=%.4f  claims=%llu  smpe-threads/node=%zu  "
      "hedge-deadline=%lluus  time-scale=%.3f  victim=node %u (mid-query "
      "outage at half the baseline reads; slow: every read 100x)\n\n",
      cluster_config.num_nodes, tpch_config.scale_factor,
      static_cast<unsigned long long>(claims_config.num_claims),
      engine_options.smpe.threads_per_node,
      static_cast<unsigned long long>(hedge_us), kTimeScale, kVictim);

  SweepStats stats;
  for (int which = 0; which < 2; ++which) {
    CellResult baseline;  // filled by the rf=1/none cell of this workload
    for (uint32_t rf : {1u, 2u}) {
      Workload w = which == 0 ? MakeTpch(cluster_config, engine_options,
                                         tpch_data, rf)
                              : MakeClaims(cluster_config, engine_options,
                                           claims_data, rf);
      w.cluster->SetTimingEnabled(true);  // measured cells
      RunSweep(ledger, w, rf, engine_options.smpe, hedge_us, &baseline, &stats,
               trace_capture);
    }
  }

  std::printf(
      "\ncells=%llu completed=%llu; rf=1 mid-outage failures=%llu (the seed "
      "layout cannot survive), rf=2 mid-outage completions=%llu, slow-node "
      "hedged cells winning hedges at the baseline checksum=%llu, completed "
      "checksums all match baseline: %s\n",
      static_cast<unsigned long long>(stats.cells),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rf1_outage_failures),
      static_cast<unsigned long long>(stats.rf2_outage_completions),
      static_cast<unsigned long long>(stats.slow_hedge_wins),
      stats.checksums_agree ? "yes" : "NO");
  std::printf(
      "Expected shape: every rf=2 cell completes (failovers > 0 under "
      "outage), both rf=1 mid-outage cells fail kUnavailable, hedged cells "
      "pay added_reads for their duplicate in-flight reads, each workload's "
      "slow hedged cell adopts second arms (hedge_wins > 0), and every "
      "completed checksum equals the no-failure baseline. Hedged wall_ms "
      "next to the unhedged twin's is reported, not gated.\n");
  const bool passed = stats.checksums_agree &&
                      stats.rf1_outage_failures == 2 &&
                      stats.rf2_outage_completions == 4 &&
                      stats.slow_hedge_wins == 2;
  if (passed) ledger.Commit();
  return passed ? 0 : 1;
}
