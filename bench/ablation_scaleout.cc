// Ablation: cluster scale-out — the "scalable" in scalable massively
// parallel execution. The paper's testbed fixed 128 nodes; this sweep
// grows the simulated cluster at a fixed Q5' workload and shows how each
// system's time responds to added nodes:
//   - the scan baseline and SMPE both scale out (more disks, more
//     bandwidth, more concurrent I/O slots);
//   - ReDe w/o SMPE barely moves once per-node work is serial — its
//     parallelism is pinned to the partition count, which is the point of
//     Fig 7's contrast.
//
// Part 2 — rebalance ablation (elastic membership): a node joins a live
// cluster and the Rebalancer migrates partitions onto it as background
// kMigration jobs while foreground traffic (Q5', claims Q1, point
// lookups) keeps running, with disk faults injected and one whole-node
// outage struck mid-migration. The sweep varies the copy throttle rate
// and reports foreground Q5' wall time and point-lookup p99 static vs
// during the rebalance — the cost of moving data faster is foreground
// tail latency. Correctness is LH_CHECKed, not just reported: every
// during-rebalance answer must be bit-identical to the static baseline,
// every overlapped job's profile must reconcile, and the scheduler must
// drain with zero leaked in-flight work. One JSON row per throttle rate
// goes to stdout and BENCH_rebalance.json (override with LH_BENCH_OUT).
//
// Env overrides: LH_BENCH_SF, LH_BENCH_NODES, LH_BENCH_THREADS,
// LH_BENCH_CLAIMS, LH_BENCH_LOOKUPS, LH_BENCH_TIMESCALE, LH_BENCH_OUT.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/scan_engine.h"
#include "bench/bench_util.h"
#include "claims/generator.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/clock.h"
#include "common/json.h"
#include "io/key_codec.h"
#include "io/rebalancer.h"
#include "obs/profile.h"
#include "rede/builtin_derefs.h"
#include "rede/engine.h"
#include "sched/scheduler.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

namespace {

constexpr uint64_t kFnvSeed = 1469598103934665603ull;

uint64_t Fnv1a(uint64_t digest, const std::string& piece) {
  digest ^= std::hash<std::string>{}(piece);
  return digest * 1099511628211ull;
}

struct RebalanceConfig {
  uint32_t nodes = 4;
  double scale_factor = 0.005;
  uint64_t num_claims = 4000;
  size_t threads_per_node = 32;
  int lookups = 24;
  /// Simulated-time multiplier. Large enough that simulated device waits
  /// dominate real thread-scheduling jitter — at tiny scales the p99
  /// comparison measures OS noise, not I/O contention.
  double time_scale = 0.5;
  /// Wall time each measured phase spends running back-to-back
  /// lookup-only waves. Long enough to span several migration chunk
  /// arrivals even at the tightest throttle, so the lookup tail samples
  /// the copy stream rather than aliasing with it.
  int64_t lookup_window_ms = 600;
};

/// One wave of foreground traffic through `scheduler`: Q5' and claims Q1
/// as analytical scans plus `lookup_jobs` as point lookups, all submitted
/// up front so they genuinely overlap whatever else the scheduler is
/// running (a migration backlog, in the during-rebalance phase). Answers
/// are digested order-independently; every job's profile must reconcile.
struct ForegroundOutcome {
  std::string q5_sum;
  std::string claims_sum;
  uint64_t lookup_sum = 0;
  bool has_scans = false;
  bool has_lookups = false;
  double q5_ms = 0.0;
  double wall_ms = 0.0;
};

/// Which jobs a wave submits. Combined waves model the mixed chaos
/// workload; the measured waves separate scans from lookups so the
/// lookup tail reflects device contention, not queueing behind the
/// scans submitted alongside.
enum class WaveKind { kCombined, kScansOnly, kLookupsOnly };

ForegroundOutcome RunForeground(sched::JobScheduler& scheduler,
                                const rede::Job& q5_job,
                                const rede::Job& claims_job,
                                const std::vector<rede::Job>& lookup_jobs,
                                WaveKind kind,
                                sched::JobClass lookup_class) {
  struct Pending {
    sched::JobHandlePtr handle;
    std::unique_ptr<rede::TupleCollector> collector;
  };
  auto submit = [&](const rede::Job& job, const char* tenant,
                    sched::JobClass job_class) {
    Pending p;
    p.collector = std::make_unique<rede::TupleCollector>();
    sched::JobSpec spec;
    spec.tenant = tenant;
    spec.job_class = job_class;
    spec.sink = p.collector->AsSink();
    auto handle = scheduler.Submit(job, std::move(spec));
    LH_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
    p.handle = *handle;
    return p;
  };
  auto reconciled_wait = [](Pending& p) {
    auto result = p.handle->Wait();
    LH_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    obs::JobProfile profile = rede::ProfileOf(*result);
    LH_CHECK_MSG(profile.Reconciles(),
                 profile.warnings().empty() ? "profile does not reconcile"
                                            : profile.warnings().front().c_str());
  };

  const bool want_scans = kind != WaveKind::kLookupsOnly;
  const bool want_lookups = kind != WaveKind::kScansOnly;
  const int64_t t0 = NowMicros();
  Pending q5;
  Pending q1;
  if (want_scans) {
    q5 = submit(q5_job, "analytics", sched::JobClass::kAnalyticalScan);
    q1 = submit(claims_job, "analytics", sched::JobClass::kAnalyticalScan);
  }
  std::vector<Pending> lookups;
  lookups.reserve(lookup_jobs.size());
  if (want_lookups) {
    for (const rede::Job& job : lookup_jobs) {
      lookups.push_back(submit(job, "serving", lookup_class));
    }
  }

  ForegroundOutcome outcome;
  if (want_scans) {
    outcome.has_scans = true;
    reconciled_wait(q5);
    outcome.q5_ms = static_cast<double>(NowMicros() - t0) / 1000.0;
    {
      auto summary = tpch::SummarizeRedeOutput(q5.collector->TakeTuples());
      LH_CHECK(summary.ok());
      uint64_t digest = kFnvSeed;
      for (const std::string& key : summary->keys) digest = Fnv1a(digest, key);
      outcome.q5_sum = "q5:" + std::to_string(summary->rows) + ":" +
                       std::to_string(digest);
    }
    reconciled_wait(q1);
    {
      auto answer = claims::SummarizeRawOutput(q1.collector->TakeTuples());
      LH_CHECK(answer.ok());
      outcome.claims_sum = "claims:" + std::to_string(answer->distinct_claims) +
                           ":" + std::to_string(answer->total_expense);
    }
  }
  if (want_lookups) {
    outcome.has_lookups = true;
    uint64_t digest = kFnvSeed;
    for (Pending& p : lookups) {
      reconciled_wait(p);
      std::vector<rede::Tuple> tuples = p.collector->TakeTuples();
      LH_CHECK_MSG(tuples.size() == 1, "pk lookup must return exactly one row");
      std::string row;
      for (const io::Record& record : tuples[0].records) {
        row += record.bytes();
        row += '#';
      }
      digest = Fnv1a(digest, row);
    }
    outcome.lookup_sum = digest;
  }
  outcome.wall_ms = static_cast<double>(NowMicros() - t0) / 1000.0;
  return outcome;
}

/// Quiescence within a bounded grace period (JobHandle::Wait returns a
/// hair before the worker releases its slot).
bool SchedulerDrained(const sched::JobScheduler& scheduler) {
  for (int i = 0; i < 2000; ++i) {
    if (scheduler.queued() == 0 && scheduler.running() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void EmitHist(Json* row, const std::string& prefix,
              const obs::HistogramSnapshot& hist) {
  row->Set(prefix + "_p50", Json::MakeNumber(static_cast<double>(hist.P50())));
  row->Set(prefix + "_p95", Json::MakeNumber(static_cast<double>(hist.P95())));
  row->Set(prefix + "_p99", Json::MakeNumber(static_cast<double>(hist.P99())));
  row->Set(prefix + "_mean", Json::MakeNumber(hist.Mean()));
}

struct RebalanceCell {
  uint64_t throttle_bytes_per_sec = 0;
  ForegroundOutcome static_run;
  ForegroundOutcome during_run;
  obs::HistogramSnapshot lookup_static_us;
  obs::HistogramSnapshot lookup_during_us;
  io::RebalanceReport report;
  uint64_t chunks_copied = 0;
};

/// One cell of the rebalance ablation: fresh cluster + lake, a static
/// foreground baseline, then a node join rebalanced at `throttle` with
/// disk faults on and node 1 struck mid-migration while the same
/// foreground wave runs. Answers must match the baseline bit for bit.
RebalanceCell RunRebalanceCell(uint64_t throttle, const RebalanceConfig& cfg,
                               const tpch::TpchData& tpch_data,
                               const claims::ClaimsData& claims_data) {
  bench::BenchClusterConfig cluster_config;
  cluster_config.num_nodes = cfg.nodes;
  sim::ClusterOptions cluster_options =
      bench::MakeClusterOptions(cluster_config);
  cluster_options.max_nodes = cfg.nodes + 1;  // headroom for the join
  cluster_options.disk.time_scale = cfg.time_scale;
  cluster_options.network.time_scale = cfg.time_scale;
  sim::Cluster cluster(cluster_options);

  rede::EngineOptions engine_options;
  engine_options.smpe.threads_per_node = cfg.threads_per_node;
  engine_options.smpe.trace_sample_n = 1;  // Reconciles() gate on every job
  engine_options.smpe.retry.max_retries = 8;
  engine_options.smpe.retry.backoff_initial_us = 50;
  engine_options.smpe.retry.backoff_max_us = 2000;
  rede::Engine engine(&cluster, engine_options);

  // rf=2 so the mid-migration outage leaves both foreground reads and
  // migration sources a live replica to fail over to.
  tpch::LoadOptions tpch_load;
  tpch_load.partitions = cfg.nodes * 2;
  tpch_load.replication_factor = 2;
  LH_CHECK(tpch::LoadIntoLake(engine, tpch_data, tpch_load).ok());
  claims::ClaimsLoadOptions claims_load;
  claims_load.replication_factor = 2;
  LH_CHECK(claims::LoadRawClaims(engine, claims_data, claims_load).ok());

  auto q5_job = tpch::BuildQ5RedeJob(engine, tpch::MakeQ5Params(0.05));
  LH_CHECK(q5_job.ok());
  auto claims_q1 = claims::BuildRawClaimsJob(engine, claims::AllQueries()[0]);
  LH_CHECK(claims_q1.ok());
  auto claims_file = engine.catalog().Get(claims::names::kRawClaims);
  LH_CHECK(claims_file.ok());
  const uint64_t id_step =
      std::max<uint64_t>(1, claims_data.raw.size() / (cfg.lookups + 1));
  std::vector<rede::Job> lookup_jobs;
  lookup_jobs.reserve(cfg.lookups);
  for (int i = 0; i < cfg.lookups; ++i) {
    const int64_t claim_id =
        static_cast<int64_t>(1 + (i * id_step) % claims_data.raw.size());
    auto job = rede::JobBuilder("pk-" + std::to_string(i))
                   .Initial(rede::Tuple::Point(
                       io::Pointer::Keyed(io::EncodeInt64Key(claim_id))))
                   .Add(rede::MakePointDereferencer("pk-deref", *claims_file))
                   .Build();
    LH_CHECK(job.ok());
    lookup_jobs.push_back(*std::move(job));
  }

  cluster.SetTimingEnabled(true);  // measured phases only

  RebalanceCell cell;
  cell.throttle_bytes_per_sec = throttle;

  // Generous execution slots: with slots scarce, lookup latency is
  // dominated by slot queueing behind the scans and the migration's
  // contention disappears into that noise. The scarce resource here is
  // the io_tokens — exactly what background copies compete for. The pool
  // is kept small so the 2 tokens a running copy chunk holds are a large
  // fraction of capacity: the during/static contrast is then the fraction
  // of time a chunk is in flight, which the throttle rate sets directly.
  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 16;
  sched_options.io_tokens = 4;

  // Both measured phases run under transient disk faults at a nonzero
  // rate. Each phase opens with an OUTAGE wave — the same faults plus a
  // 40 ms outage of node 1, a replica of half the partitions (so
  // foreground reads fail over to it) and, in the during-rebalance phase,
  // a live migration source — whose job is the correctness gates, not
  // latency: its lookups ride the scan class so the point-lookup
  // histograms hold only the measured waves, where the outage-response
  // randomness (which jobs land in the window) would otherwise bury the
  // throttle sweep's signal.
  sim::FaultOptions faults;
  faults.fault_rate = 0.01;
  faults.unavailable_fraction = 0.5;
  faults.seed = 1234;

  // Warm-up wave, discarded except for its answers (the clean ground
  // truth): the executor's per-node thread pools are created lazily on
  // the first run, and that cold start would otherwise be charged
  // entirely to the static baseline.
  ForegroundOutcome clean_run;
  {
    sched::JobScheduler scheduler(&engine.executor(rede::ExecutionMode::kSmpe),
                                  sched_options);
    clean_run = RunForeground(scheduler, *q5_job, *claims_q1, lookup_jobs,
                              WaveKind::kCombined,
                              sched::JobClass::kPointLookup);
    LH_CHECK_MSG(SchedulerDrained(scheduler), "warm-up phase leaked work");
  }

  auto check_answers = [&](const ForegroundOutcome& outcome,
                           const char* what) {
    LH_CHECK_MSG((!outcome.has_scans ||
                  (outcome.q5_sum == clean_run.q5_sum &&
                   outcome.claims_sum == clean_run.claims_sum)) &&
                     (!outcome.has_lookups ||
                      outcome.lookup_sum == clean_run.lookup_sum),
                 what);
  };
  auto outage_wave = [&](sched::JobScheduler& scheduler) {
    cluster.ConfigureDiskFaults(faults);  // rewind the fault streams
    cluster.SetNodeOutage(1, true);
    std::thread outage_lifter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      cluster.SetNodeOutage(1, false);
    });
    ForegroundOutcome outcome =
        RunForeground(scheduler, *q5_job, *claims_q1, lookup_jobs,
                      WaveKind::kCombined, sched::JobClass::kAnalyticalScan);
    outage_lifter.join();
    return outcome;
  };
  // A measured phase runs the scans and the lookups in SEPARATE waves.
  // Submitted together, lookup latency is dominated by queueing behind
  // that same wave's scans — identical static and during — and the
  // migration's device-level contention drowns. Lookup-only waves keep
  // the baseline tail at device scale, where a colliding copy chunk is
  // actually visible; they repeat back to back for a fixed wall window so
  // the samples span several chunk arrivals at every throttle rate.
  //
  // The measured waves run FAULT-FREE: a 1% fault rate puts random
  // multi-ms retry backoffs into the tail, which swamps the throttle
  // sweep's signal. Fault-tolerance correctness is the outage waves' job
  // — those keep faults on (plus the outage) and gate on bit-identical
  // answers.
  constexpr int kScanWavesPerPhase = 2;
  auto measured_phase = [&](sched::JobScheduler& scheduler) {
    cluster.ConfigureDiskFaults(sim::FaultOptions{});
    ForegroundOutcome phase;
    double q5_ms_sum = 0.0;
    for (int wave = 0; wave < kScanWavesPerPhase; ++wave) {
      ForegroundOutcome outcome =
          RunForeground(scheduler, *q5_job, *claims_q1, lookup_jobs,
                        WaveKind::kScansOnly, sched::JobClass::kPointLookup);
      check_answers(outcome, "a measured scan wave changed answers");
      if (wave == 0) phase = outcome;
      q5_ms_sum += outcome.q5_ms;
    }
    phase.q5_ms = q5_ms_sum / kScanWavesPerPhase;
    const int64_t window_end = NowMicros() + cfg.lookup_window_ms * 1000;
    do {
      ForegroundOutcome outcome =
          RunForeground(scheduler, *q5_job, *claims_q1, lookup_jobs,
                        WaveKind::kLookupsOnly, sched::JobClass::kPointLookup);
      check_answers(outcome, "a measured lookup wave changed answers");
      phase.lookup_sum = outcome.lookup_sum;
      phase.has_lookups = true;
    } while (NowMicros() < window_end);
    return phase;
  };

  // Static baseline: outage wave then measured waves, no membership
  // change.
  {
    sched::JobScheduler scheduler(&engine.executor(rede::ExecutionMode::kSmpe),
                                  sched_options);
    check_answers(outage_wave(scheduler),
                  "faults/outage changed answers without any rebalance");
    cell.static_run = measured_phase(scheduler);
    LH_CHECK_MSG(SchedulerDrained(scheduler), "static phase leaked work");
    cell.lookup_static_us =
        scheduler.stats()
            .per_class[static_cast<size_t>(sched::JobClass::kPointLookup)]
            .total_us;
  }

  // During-rebalance phase: identical treatment with a throttled
  // node-join rebalance in the background — the outage now strikes a live
  // migration source once the first chunk has landed, and the measured
  // waves run while partitions are still moving.

  sched::JobScheduler scheduler(&engine.executor(rede::ExecutionMode::kSmpe),
                                sched_options);
  io::RebalanceOptions rebalance_options;
  rebalance_options.throttle_bytes_per_sec = throttle;
  // Chunks big enough that each copy burst occupies the disks long enough
  // for a colliding foreground lookup to notice — with tiny chunks the
  // migration's device time is negligible at this scale and the sweep has
  // nothing to show.
  rebalance_options.copy_chunk_bytes = 128 * 1024;
  // One outstanding copy job: the rate budget is global, so extra
  // concurrent streams only add yield/resubmit churn; a single stream
  // gives the sweep a regular chunk cadence whose foreground impact
  // scales cleanly with the throttle rate.
  rebalance_options.max_concurrent_migrations = 1;
  rebalance_options.retry.max_retries = 100;  // outlive the outage window
  rebalance_options.retry.backoff_initial_us = 500;
  rebalance_options.retry.backoff_max_us = 5000;
  io::Rebalancer rebalancer(&cluster, &scheduler, rebalance_options);
  std::vector<std::shared_ptr<io::File>> files;
  for (const std::string& name : engine.catalog().ListNames()) {
    auto file = engine.catalog().Get(name);
    LH_CHECK(file.ok());
    files.push_back(*file);
    rebalancer.RegisterFile(files.back().get());
  }

  std::atomic<bool> rebalance_done{false};
  StatusOr<sim::NodeId> joined = Status::Internal("not run");
  std::thread rebalance_thread([&] {
    joined = rebalancer.AddNodeAndRebalance();
    rebalance_done.store(true);
  });
  while (rebalancer.progress().chunks_copied.load() == 0 &&
         !rebalance_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  check_answers(outage_wave(scheduler),
                "answers changed under the mid-migration outage");
  cell.during_run = measured_phase(scheduler);
  // The numbers are only a during-rebalance measurement if the copies
  // were still running when the last measured wave finished.
  LH_CHECK_MSG(!rebalance_done.load(),
               "rebalance finished before the measured waves — lower the "
               "throttle rates or raise the workload");
  rebalance_thread.join();
  LH_CHECK_MSG(joined.ok(), joined.status().ToString().c_str());

  // Remaining gates — reported numbers are meaningless if any fails.
  LH_CHECK_MSG(rebalancer.progress().partitions_done.load() ==
                   rebalancer.progress().partitions_total.load(),
               "rebalance left partitions unmigrated");
  for (const std::shared_ptr<io::File>& file : files) {
    LH_CHECK_MSG(!file->placement_manager().rebalancing(),
                 "a file was left mid-transition");
  }
  LH_CHECK_MSG(SchedulerDrained(scheduler), "rebalance phase leaked work");

  cell.lookup_during_us =
      scheduler.stats()
          .per_class[static_cast<size_t>(sched::JobClass::kPointLookup)]
          .total_us;
  cell.report = rebalancer.last_report();
  cell.chunks_copied = rebalancer.progress().chunks_copied.load();
  cluster.ConfigureDiskFaults(sim::FaultOptions{});
  return cell;
}

void EmitCell(bench::Ledger& ledger, const RebalanceCell& cell,
              const RebalanceConfig& cfg) {
  Json row = Json::MakeObject();
  row.Set("bench", Json::MakeString("rebalance"));
  row.Set("nodes", Json::MakeNumber(static_cast<double>(cfg.nodes)));
  row.Set("throttle_bytes_per_sec",
          Json::MakeNumber(static_cast<double>(cell.throttle_bytes_per_sec)));
  row.Set("q5_static_ms", Json::MakeNumber(cell.static_run.q5_ms));
  row.Set("q5_during_ms", Json::MakeNumber(cell.during_run.q5_ms));
  row.Set("foreground_static_ms", Json::MakeNumber(cell.static_run.wall_ms));
  row.Set("foreground_during_ms", Json::MakeNumber(cell.during_run.wall_ms));
  EmitHist(&row, "lookup_static_us", cell.lookup_static_us);
  EmitHist(&row, "lookup_during_us", cell.lookup_during_us);
  // The headline: foreground tail degradation relative to THIS cell's own
  // static baseline (each cell is a fresh cluster, so cross-row absolute
  // latencies are not comparable — the ratios are).
  const double static_p99 = static_cast<double>(cell.lookup_static_us.P99());
  row.Set("lookup_p99_degradation",
          Json::MakeNumber(static_p99 > 0
                               ? static_cast<double>(
                                     cell.lookup_during_us.P99()) /
                                     static_p99
                               : 0.0));
  row.Set("q5_degradation",
          Json::MakeNumber(cell.static_run.q5_ms > 0
                               ? cell.during_run.q5_ms / cell.static_run.q5_ms
                               : 0.0));
  row.Set("rebalance_ms",
          Json::MakeNumber(static_cast<double>(cell.report.elapsed_ms)));
  row.Set("bytes_copied",
          Json::MakeNumber(static_cast<double>(cell.report.bytes_copied)));
  row.Set("chunks_copied",
          Json::MakeNumber(static_cast<double>(cell.chunks_copied)));
  row.Set("chunk_retries",
          Json::MakeNumber(static_cast<double>(cell.report.chunk_retries)));
  row.Set("source_failovers",
          Json::MakeNumber(static_cast<double>(cell.report.source_failovers)));
  row.Set("job_resubmissions", Json::MakeNumber(static_cast<double>(
                                   cell.report.job_resubmissions)));
  row.Set("throttle_yields",
          Json::MakeNumber(static_cast<double>(cell.report.throttle_yields)));
  row.Set("partitions_moved",
          Json::MakeNumber(static_cast<double>(cell.report.partitions_moved)));
  row.Set("partitions_unchanged", Json::MakeNumber(static_cast<double>(
                                      cell.report.partitions_unchanged)));
  row.Set("committed_epoch",
          Json::MakeNumber(static_cast<double>(cell.report.committed_epoch)));
  row.Set("checksum",
          Json::MakeString(cell.static_run.q5_sum + "|" +
                           cell.static_run.claims_sum + "|pk:" +
                           std::to_string(cell.static_run.lookup_sum)));
  std::string line = row.Dump();
  std::printf("%s\n", line.c_str());
  ledger.Add(line);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceCapture trace_capture(argc, argv);
  tpch::TpchConfig config;
  config.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.005);
  tpch::TpchData data = tpch::Generate(config);
  tpch::Q5Params params = tpch::MakeQ5Params(0.1);

  bench::PrintHeader("Ablation — cluster scale-out at fixed work (Q5', sel=0.1)");
  std::printf("%-8s %14s %16s %16s %10s\n", "nodes", "baseline-ms",
              "rede-w/o-smpe", "rede-w/-smpe", "peak-par");

  for (uint32_t nodes : {2, 4, 8, 16}) {
    bench::BenchClusterConfig cluster_config;
    cluster_config.num_nodes = nodes;
    sim::Cluster cluster(bench::MakeClusterOptions(cluster_config));
    rede::EngineOptions engine_options;
    engine_options.smpe.threads_per_node = 64;
    engine_options.smpe.trace_sample_n = trace_capture.sample_n();
    rede::Engine engine(&cluster, engine_options);
    tpch::LoadOptions load;
    load.partitions = nodes * 2;
    LH_CHECK(tpch::LoadIntoLake(engine, data, load).ok());
    baseline::ScanEngine scan_engine(&cluster);
    cluster.SetTimingEnabled(true);

    StopWatch scan_watch;
    LH_CHECK(tpch::RunQ5Baseline(scan_engine, engine.catalog(), params).ok());
    double baseline_ms = scan_watch.ElapsedMillis();

    auto job = tpch::BuildQ5RedeJob(engine, params);
    LH_CHECK(job.ok());
    auto partitioned =
        engine.Execute(*job, rede::ExecutionMode::kPartitioned, nullptr);
    LH_CHECK(partitioned.ok());
    auto smpe = engine.Execute(*job, rede::ExecutionMode::kSmpe, nullptr);
    LH_CHECK(smpe.ok());
    trace_capture.Observe(*smpe, "Q5' smpe nodes=" + std::to_string(nodes));

    std::printf("%-8u %14.2f %16.2f %16.2f %10lld\n", nodes, baseline_ms,
                partitioned->metrics.wall_ms, smpe->metrics.wall_ms,
                static_cast<long long>(smpe->metrics.peak_parallel_derefs));
  }
  std::printf(
      "\nExpected shape: the baseline and rede-w/o-smpe shrink with the "
      "node count (more aggregate bandwidth; more partition workers), while "
      "SMPE is already near its floor at small clusters — at this "
      "down-scaled workload a couple of hundred concurrent I/Os saturate "
      "the job's available parallelism, so extra nodes buy little (the "
      "strong-scaling limit). SMPE stays the fastest at every size.\n");

  // ------------------------------------------------- rebalance ablation
  RebalanceConfig rebalance_config;
  rebalance_config.nodes =
      static_cast<uint32_t>(bench::EnvOr("LH_BENCH_NODES", 4));
  rebalance_config.scale_factor = config.scale_factor;
  rebalance_config.num_claims =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_CLAIMS", 4000));
  rebalance_config.threads_per_node =
      static_cast<size_t>(bench::EnvOr("LH_BENCH_THREADS", 32));
  // Few enough concurrent lookups that a wave barely queues on the 8 io
  // tokens: the baseline tail then sits at device scale, where a copy
  // chunk colliding on a disk is a large relative hit instead of noise
  // under self-queueing.
  rebalance_config.lookups =
      static_cast<int>(bench::EnvOr("LH_BENCH_LOOKUPS", 16));
  rebalance_config.time_scale = bench::EnvOr("LH_BENCH_TIMESCALE", 0.5);
  rebalance_config.lookup_window_ms =
      static_cast<int64_t>(bench::EnvOr("LH_BENCH_WINDOW_MS", 600));

  claims::ClaimsConfig claims_config;
  claims_config.num_claims = rebalance_config.num_claims;
  const claims::ClaimsData claims_data =
      claims::GenerateClaims(claims_config);

  bench::PrintHeader(
      "Ablation — foreground latency during an online node-join rebalance "
      "(faults on, node 1 struck mid-migration) vs copy throttle");
  std::printf(
      "nodes=%u->%u  SF=%.4f  claims=%llu  lookups=%d  rf=2  "
      "fault-rate=0.01\n\n",
      rebalance_config.nodes, rebalance_config.nodes + 1,
      rebalance_config.scale_factor,
      static_cast<unsigned long long>(rebalance_config.num_claims),
      rebalance_config.lookups);

  bench::Ledger ledger("BENCH_rebalance.json");

  std::printf("%-14s %12s %12s %14s %14s %10s %12s\n", "throttle-B/s",
              "q5-static", "q5-during", "pk-p99-static", "pk-p99-during",
              "p99-degr", "rebalance");
  // Ascending copy aggressiveness, spaced 4x apart so each step's extra
  // disk occupancy clears the run-to-run noise floor: the faster the
  // migration moves bytes, the more often a foreground lookup lands
  // behind a copy chunk and the higher the during-rebalance tail.
  for (uint64_t throttle : {uint64_t{128} * 1024, uint64_t{512} * 1024,
                            uint64_t{2048} * 1024}) {
    RebalanceCell cell =
        RunRebalanceCell(throttle, rebalance_config, data, claims_data);
    EmitCell(ledger, cell, rebalance_config);
    const double p99_degradation =
        cell.lookup_static_us.P99() > 0
            ? static_cast<double>(cell.lookup_during_us.P99()) /
                  static_cast<double>(cell.lookup_static_us.P99())
            : 0.0;
    std::printf("%-14llu %10.1fms %10.1fms %12lluus %12lluus %9.2fx %10llums\n",
                static_cast<unsigned long long>(throttle),
                cell.static_run.q5_ms, cell.during_run.q5_ms,
                static_cast<unsigned long long>(cell.lookup_static_us.P99()),
                static_cast<unsigned long long>(cell.lookup_during_us.P99()),
                p99_degradation,
                static_cast<unsigned long long>(cell.report.elapsed_ms));
  }
  ledger.Commit();
  std::printf(
      "\nExpected shape: every row's during-rebalance answers are "
      "bit-identical to its static baseline (LH_CHECKed). Each cell is a "
      "fresh cluster, so compare p99-degr (during/static within one cell), "
      "not absolute latencies across rows: degradation stays bounded and "
      "grows with the copy rate — a tight throttle hides the migration "
      "from foreground tails (p99-degr near 1.0) at the price of a longer "
      "rebalance; the fastest copy rate finishes soonest and hurts tails "
      "most.\n"
      "results written to %s\n",
      ledger.path().c_str());
  return 0;
}
