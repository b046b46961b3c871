// Scrub ablation: sweep corruption_rate × replication factor × scrub rate
// over the two pointer-chasing workloads — TPC-H Q5' and the claims
// warehouse Q1 — and measure what end-to-end integrity costs.
//
// Phase 1 (rot grid, per workload):
//   rf=2, rot=0                 — the fault-free baseline checksum
//   rf=2, rot>0 × engine {threaded, async}
//                               — must COMPLETE with the baseline checksum
//                                 (read-repair absorbs the rot), with
//                                 read_repairs > 0, unrepairable == 0, and
//                                 an exactly-reconciling JobProfile
//   rf=1, rot>0                 — must FAIL kCorruption: no sibling to
//                                 fail over to, never silently wrong bytes
//
// Each rot cell scans fault seeds in a fixed order for a pattern the
// failover survives (a seed that rots EVERY replica of one logical read
// correctly fails the job — that behavior is the rf=1 cell's subject); the
// chosen seed is reported per cell.
//
// Phase 2 (scrub sweep, per workload): rf=2 with rot injected, foreground
// Q5'/Q1 loops through the sched::JobScheduler while an io::Scrubber runs
// one full verify/repair pass over every catalog file as the low-priority
// kScrub class — scrub rate {none, throttled, unthrottled}, where the
// throttled rate defaults to half the pass's replicated byte total per
// second (~2 s of overlap). The foreground answer must stay bit-identical
// to the baseline in every cell and every run, and its p99 dereference
// latency must stay bounded (it should also grow monotonically with the
// scrub rate — recorded in the JSON and the stdout summary; wall-clock
// noise at toy scale keeps it out of the exit gate). These three cells run
// with device timing off, so they measure CPU only. Two more cells,
// `timed_none` and `timed_throttled`, run with device timing on at time
// scale 1: the scrub's repair writes then share each disk's slots with the
// foreground reads, and its scans share the disk's chunk rotation with the
// foreground scans. `timed_none` loops a fixed number of jobs for its
// reference, and the throttled cell's median dereference latency (about
// one modeled read and hop plus slot queueing) must stay within 1.5x of
// it. The timed p99 is recorded but not gated: it is set by completions
// waiting for a CPU worker, not by the device, and moves several-fold
// between runs of the same cell.
//
// Output: one JSON object per cell on stdout, mirrored to BENCH_scrub.json
// (override with LH_BENCH_OUT).
//
// Env overrides: LH_BENCH_NODES, LH_BENCH_SF, LH_BENCH_THREADS,
// LH_BENCH_CLAIMS, LH_BENCH_ROT, LH_BENCH_SCRUB_BPS, LH_BENCH_OUT.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/json.h"
#include "io/scrubber.h"
#include "rede/async_executor.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "sched/scheduler.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

namespace {

constexpr uint64_t kMaxSeedScan = 32;
/// Jobs the timed no-scrub cell loops for its reference (one timed Q5' job
/// is ~15 ms, one claims Q1 job ~55 ms at default scale).
constexpr uint32_t kTimedReferenceJobs = 32;
/// A timed scrubbed cell's median dereference latency may reach this
/// multiple of the timed reference's. Measured ratios sit at 0.95-1.10, so
/// a scrub that doubles the typical foreground read crosses it.
constexpr double kTimedP50Slack = 1.5;

struct CellResult {
  bool completed = false;
  uint64_t rows = 0;
  std::string checksum;
  std::string error;
  uint64_t fault_seed = 0;
  uint64_t corruptions_detected = 0;
  uint64_t read_repairs = 0;
  uint64_t unrepairable = 0;
  uint64_t failovers = 0;
  bool reconciles = false;
  double wall_ms = 0.0;
  uint64_t deref_p50_us = 0;
  uint64_t deref_p99_us = 0;
  uint64_t jobs = 0;         // foreground jobs that completed
  double job_p50_ms = 0.0;   // their median wall time
  // Scrub-phase extras (zero in the rot grid).
  uint64_t scrub_passes = 0;
  uint64_t scrub_corrupt_found = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_throttle_yields = 0;
  uint64_t fg_corruption_aborts = 0;
};

void EmitJson(bench::Ledger& ledger, const std::string& workload,
              const char* phase, uint32_t rf, double rot, const char* engine,
              const char* scrub_mode, uint64_t scrub_bps,
              const CellResult& r) {
  Json row = Json::MakeObject();
  row.Set("bench", Json::MakeString("scrub"));
  row.Set("workload", Json::MakeString(workload));
  row.Set("phase", Json::MakeString(phase));
  row.Set("replication_factor", Json::MakeNumber(static_cast<double>(rf)));
  row.Set("corruption_rate", Json::MakeNumber(rot));
  row.Set("engine", Json::MakeString(engine));
  row.Set("scrub_mode", Json::MakeString(scrub_mode));
  row.Set("scrub_bytes_per_sec",
          Json::MakeNumber(static_cast<double>(scrub_bps)));
  row.Set("completed", Json::MakeNumber(r.completed ? 1 : 0));
  row.Set("rows", Json::MakeNumber(static_cast<double>(r.rows)));
  row.Set("checksum", Json::MakeString(r.checksum));
  row.Set("error", Json::MakeString(r.error));
  row.Set("fault_seed", Json::MakeNumber(static_cast<double>(r.fault_seed)));
  row.Set("corruptions_detected",
          Json::MakeNumber(static_cast<double>(r.corruptions_detected)));
  row.Set("read_repairs",
          Json::MakeNumber(static_cast<double>(r.read_repairs)));
  row.Set("unrepairable",
          Json::MakeNumber(static_cast<double>(r.unrepairable)));
  row.Set("failovers", Json::MakeNumber(static_cast<double>(r.failovers)));
  row.Set("reconciles", Json::MakeNumber(r.reconciles ? 1 : 0));
  row.Set("wall_ms", Json::MakeNumber(r.wall_ms));
  row.Set("deref_p50_us",
          Json::MakeNumber(static_cast<double>(r.deref_p50_us)));
  row.Set("deref_p99_us",
          Json::MakeNumber(static_cast<double>(r.deref_p99_us)));
  row.Set("jobs", Json::MakeNumber(static_cast<double>(r.jobs)));
  row.Set("job_p50_ms", Json::MakeNumber(r.job_p50_ms));
  row.Set("scrub_passes",
          Json::MakeNumber(static_cast<double>(r.scrub_passes)));
  row.Set("scrub_corrupt_found",
          Json::MakeNumber(static_cast<double>(r.scrub_corrupt_found)));
  row.Set("scrub_repaired",
          Json::MakeNumber(static_cast<double>(r.scrub_repaired)));
  row.Set("scrub_throttle_yields",
          Json::MakeNumber(static_cast<double>(r.scrub_throttle_yields)));
  row.Set("fg_corruption_aborts",
          Json::MakeNumber(static_cast<double>(r.fg_corruption_aborts)));
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

/// Everything needed to run one workload at one replication factor. The
/// cluster/engine are rebuilt per cell so every cell sees freshly rewound
/// fault streams and clean counters.
struct Workload {
  std::string name;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<rede::Engine> engine;
  std::unique_ptr<rede::Job> job;
  Summarize summarize;
};

sim::FaultOptions RotOnly(double rate, uint64_t seed) {
  sim::FaultOptions faults;
  faults.corruption_rate = rate;
  faults.seed = seed;
  return faults;
}

/// Run the workload's job once on the given executor and fill a cell.
CellResult RunOnce(Workload& w, rede::Executor& executor) {
  rede::TupleCollector collector;
  auto result = executor.Execute(*w.job, collector.AsSink());
  CellResult cell;
  if (!result.ok()) {
    cell.error = result.status().ToString();
    return cell;
  }
  cell.completed = true;
  std::vector<rede::Tuple> tuples = collector.TakeTuples();
  cell.checksum = w.summarize(tuples, &cell.rows);
  cell.corruptions_detected = result->metrics.corruptions_detected;
  cell.read_repairs = result->metrics.read_repairs;
  cell.unrepairable = result->metrics.unrepairable;
  cell.failovers = result->metrics.failovers;
  cell.wall_ms = result->metrics.wall_ms;
  cell.deref_p99_us = result->metrics.deref_latency_us.P99();
  cell.reconciles = ProfileOf(*result).Reconciles();
  return cell;
}

/// Scan fault seeds for a rot pattern this executor's failover survives
/// with at least one corruption detected; returns the surviving cell (seed
/// recorded) or, when every scanned seed rots some read on all replicas,
/// the last failing cell.
CellResult RunRotCell(Workload& w, rede::Executor& executor, double rot) {
  CellResult last;
  for (uint64_t seed = 1; seed <= kMaxSeedScan; ++seed) {
    w.cluster->ConfigureDiskFaults(RotOnly(rot, seed));
    CellResult cell = RunOnce(w, executor);
    cell.fault_seed = seed;
    if (cell.completed && cell.corruptions_detected > 0) return cell;
    last = cell;
  }
  return last;
}

Workload MakeTpch(const bench::BenchClusterConfig& cluster_config,
                  const rede::EngineOptions& engine_options,
                  const tpch::TpchData& data, uint32_t rf) {
  Workload w;
  w.name = "tpch_q5";
  w.cluster =
      std::make_unique<sim::Cluster>(bench::MakeClusterOptions(cluster_config));
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
  w.cluster =
      std::make_unique<sim::Cluster>(bench::MakeClusterOptions(cluster_config));
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

using MakeWorkload = std::function<Workload(uint32_t rf)>;

struct SweepStats {
  uint64_t cells = 0;
  bool checksums_agree = true;
  bool rf2_all_repaired = true;   // completed, repairs>0, unrepairable==0
  bool rf2_all_reconcile = true;
  uint64_t rf1_corruption_failures = 0;
  uint64_t rf1_rot_cells = 0;
  bool latency_bounded = true;
  bool p99_monotone = true;
};

/// Phase 1: the rot grid for one workload.
void RunRotGrid(bench::Ledger& ledger, const MakeWorkload& make, double rot,
                const rede::SmpeOptions& smpe_options, CellResult* baseline,
                SweepStats* stats) {
  // Fault-free rf=2 baseline.
  {
    Workload w = make(2);
    rede::SmpeExecutor threaded(w.cluster.get(), smpe_options);
    *baseline = RunOnce(w, threaded);
    LH_CHECK_MSG(baseline->completed, "fault-free baseline failed");
    EmitJson(ledger, w.name, "rot", 2, 0.0, "threaded", "none", 0, *baseline);
    stats->cells++;
  }

  // rf=2 with rot: both engines must serve the baseline answer via
  // detect-failover-repair.
  for (const char* engine : {"threaded", "async"}) {
    Workload w = make(2);
    CellResult cell;
    if (std::string(engine) == "async") {
      rede::AsyncExecutor async(w.cluster.get(), smpe_options);
      cell = RunRotCell(w, async, rot);
    } else {
      rede::SmpeExecutor threaded(w.cluster.get(), smpe_options);
      cell = RunRotCell(w, threaded, rot);
    }
    EmitJson(ledger, w.name, "rot", 2, rot, engine, "none", 0, cell);
    stats->cells++;
    if (!cell.completed || cell.read_repairs == 0 ||
        cell.unrepairable != 0) {
      stats->rf2_all_repaired = false;
    }
    if (!cell.reconciles) stats->rf2_all_reconcile = false;
    if (cell.completed && cell.checksum != baseline->checksum) {
      stats->checksums_agree = false;
    }
  }

  // rf=1 with rot: no sibling — the run must fail kCorruption, never
  // return silently wrong bytes. A seed whose rot happens to miss every
  // read of this (toy-scale) run proves nothing, so scan for one that
  // lands; a run that COMPLETES with corruptions detected at rf=1 would be
  // the bug this cell exists to rule out.
  {
    Workload w = make(1);
    rede::SmpeExecutor threaded(w.cluster.get(), smpe_options);
    CellResult cell;
    bool failed_corruption = false;
    for (uint64_t seed = 1; seed <= kMaxSeedScan; ++seed) {
      w.cluster->ConfigureDiskFaults(RotOnly(rot, seed));
      rede::TupleCollector collector;
      auto result = threaded.Execute(*w.job, collector.AsSink());
      cell = CellResult();
      cell.fault_seed = seed;
      if (!result.ok()) {
        cell.error = result.status().ToString();
        failed_corruption = result.status().IsCorruption();
        break;
      }
      cell.completed = true;
      std::vector<rede::Tuple> tuples = collector.TakeTuples();
      cell.checksum = w.summarize(tuples, &cell.rows);
      cell.corruptions_detected = result->metrics.corruptions_detected;
      if (cell.corruptions_detected > 0) break;  // survived rot at rf=1?!
    }
    stats->rf1_rot_cells++;
    if (failed_corruption) stats->rf1_corruption_failures++;
    EmitJson(ledger, w.name, "rot", 1, rot, "threaded", "none", 0, cell);
    stats->cells++;
  }
}

/// Bytes one rf=2 scrub pass streams: every live replica of every file.
uint64_t ReplicatedBytes(Workload& w) {
  uint64_t total = 0;
  for (const std::string& name : w.engine->catalog().ListNames()) {
    auto file = w.engine->catalog().Get(name);
    LH_CHECK(file.ok());
    total += (*file)->total_bytes() * 2;
  }
  return total;
}

/// Phase 2: foreground latency while one full background scrub pass runs
/// at `scrub_bps` (0 = no scrubber; UINT64_MAX = unthrottled). The
/// foreground query loops through the scheduler until the pass completes
/// (so a throttled pass overlaps real foreground traffic end to end),
/// bounded by a wall-clock cap so a tight throttle cannot wedge the cell —
/// a capped cell cancels the pass and reports its partial progress.
/// `timed` turns device timing on for the whole cell; a timed cell without
/// a scrubber loops kTimedReferenceJobs jobs instead of one.
CellResult RunScrubCell(Workload& w, const rede::SmpeOptions& smpe_options,
                        double rot, uint64_t fault_seed, uint64_t scrub_bps,
                        bool timed) {
  w.cluster->SetTimingEnabled(timed);
  rede::SmpeExecutor executor(w.cluster.get(), smpe_options);
  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 4;
  sched::JobScheduler scheduler(&executor, sched_options);

  std::vector<std::shared_ptr<io::File>> files;
  for (const std::string& name : w.engine->catalog().ListNames()) {
    auto file = w.engine->catalog().Get(name);
    LH_CHECK(file.ok());
    files.push_back(*file);
  }
  io::ScrubOptions scrub_options;
  scrub_options.throttle_bytes_per_sec =
      scrub_bps == UINT64_MAX ? 0 : scrub_bps;
  io::Scrubber scrubber(w.cluster.get(), &scheduler, scrub_options);
  for (const auto& file : files) scrubber.RegisterFile(file.get());

  w.cluster->ConfigureDiskFaults(RotOnly(rot, fault_seed));

  std::atomic<bool> scrub_done{scrub_bps == 0};
  io::ScrubReport pass_report;
  bool pass_completed = false;
  std::thread scrub_thread;
  if (scrub_bps > 0) {
    scrub_thread = std::thread([&] {
      auto report = scrubber.ScrubAll();
      if (report.ok()) {
        pass_report = *report;
        pass_completed = true;
      }
      scrub_done.store(true, std::memory_order_release);
    });
  }

  CellResult cell;
  cell.fault_seed = fault_seed;
  cell.reconciles = true;
  obs::HistogramSnapshot foreground_latency;
  std::vector<double> job_ms;
  const auto start = std::chrono::steady_clock::now();
  const auto cap = std::chrono::seconds(15);
  const uint32_t min_jobs =
      timed && scrub_bps == 0 ? kTimedReferenceJobs : 1;
  uint32_t jobs = 0;
  bool ok = true;
  do {
    ++jobs;
    rede::TupleCollector collector;
    sched::JobSpec spec;
    spec.tenant = "analytics";
    spec.job_class = sched::JobClass::kAnalyticalScan;
    spec.sink = collector.AsSink();
    auto result = scheduler.Run(*w.job, std::move(spec));
    if (!result.ok()) {
      if (result.status().IsCorruption()) {
        // Over hundreds of looped runs the memoryless rot stream will
        // eventually rot BOTH replicas of one logical read; failing that
        // run loudly (never serving wrong bytes) is the contract, so
        // count it and keep looping. Divergence is what fails the cell.
        cell.fg_corruption_aborts++;
        continue;
      }
      cell.error = result.status().ToString();
      ok = false;
      break;
    }
    std::vector<rede::Tuple> tuples = collector.TakeTuples();
    uint64_t rows = 0;
    std::string checksum = w.summarize(tuples, &rows);
    if (cell.checksum.empty()) {
      cell.checksum = checksum;
      cell.rows = rows;
    } else if (checksum != cell.checksum) {
      cell.error = "foreground checksum diverged across runs";
      cell.checksum = checksum;
      ok = false;
      break;
    }
    cell.corruptions_detected += result->metrics.corruptions_detected;
    cell.read_repairs += result->metrics.read_repairs;
    cell.unrepairable += result->metrics.unrepairable;
    cell.failovers += result->metrics.failovers;
    cell.wall_ms += result->metrics.wall_ms;
    job_ms.push_back(result->metrics.wall_ms);
    foreground_latency.Merge(result->metrics.deref_latency_us);
    cell.reconciles = cell.reconciles && ProfileOf(*result).Reconciles();
  } while ((!scrub_done.load(std::memory_order_acquire) || jobs < min_jobs) &&
           std::chrono::steady_clock::now() - start < cap);

  if (scrub_bps > 0) {
    if (!scrub_done.load(std::memory_order_acquire)) {
      scrubber.Cancel(Status::Aborted("foreground wall-clock cap reached"));
    }
    scrub_thread.join();
  }
  if (ok && cell.checksum.empty()) {
    cell.error = "every foreground run aborted on corruption";
    ok = false;
  }
  cell.completed = ok;
  cell.deref_p50_us = foreground_latency.P50();
  cell.deref_p99_us = foreground_latency.P99();
  cell.jobs = job_ms.size();
  if (!job_ms.empty()) {
    std::nth_element(job_ms.begin(), job_ms.begin() + job_ms.size() / 2,
                     job_ms.end());
    cell.job_p50_ms = job_ms[job_ms.size() / 2];
  }
  if (pass_completed) {
    cell.scrub_passes = 1;
    cell.scrub_corrupt_found = pass_report.corrupt_replicas_found;
    cell.scrub_repaired = pass_report.replicas_repaired;
    cell.scrub_throttle_yields = pass_report.throttle_yields;
  } else if (scrub_bps > 0) {
    cell.scrub_corrupt_found =
        scrubber.progress().corrupt_replicas_found.load();
    cell.scrub_repaired = scrubber.progress().replicas_repaired.load();
    cell.scrub_throttle_yields = scrubber.progress().throttle_yields.load();
  }
  return cell;
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
  rede::SmpeOptions smpe_options = engine_options.smpe;
  smpe_options.trace_sample_n = 1;  // every cell checks Reconciles()

  const double rot = bench::EnvOr("LH_BENCH_ROT", 0.001);
  // 0 = auto: per workload, half the pass's replicated byte total per
  // second, so one throttled pass takes ~2 s of real foreground overlap.
  const uint64_t throttled_bps_env =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_SCRUB_BPS", 0));

  tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.005);
  tpch::TpchData tpch_data = tpch::Generate(tpch_config);

  claims::ClaimsConfig claims_config;
  claims_config.num_claims =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_CLAIMS", 20000));
  claims::ClaimsData claims_data = claims::GenerateClaims(claims_config);

  bench::Ledger ledger("BENCH_scrub.json");

  bench::PrintHeader(
      "Scrub ablation — corruption rate x replication factor x scrub rate");
  std::printf(
      "nodes=%u  SF=%.4f  claims=%llu  smpe-threads/node=%zu  rot=%.4g  "
      "throttled-scrub=%s B/s\n\n",
      cluster_config.num_nodes, tpch_config.scale_factor,
      static_cast<unsigned long long>(claims_config.num_claims),
      engine_options.smpe.threads_per_node, rot,
      throttled_bps_env > 0 ? std::to_string(throttled_bps_env).c_str()
                            : "auto (replicated bytes / 2)");

  SweepStats stats;
  for (int which = 0; which < 2; ++which) {
    MakeWorkload make = [&](uint32_t rf) {
      return which == 0
                 ? MakeTpch(cluster_config, engine_options, tpch_data, rf)
                 : MakeClaims(cluster_config, engine_options, claims_data,
                              rf);
    };

    CellResult baseline;
    RunRotGrid(ledger, make, rot, smpe_options, &baseline, &stats);

    // Phase 2: reuse one surviving seed (scanned on a fresh workload) for
    // all three scrub cells so the rot pattern axis stays fixed while the
    // scrub rate moves.
    uint64_t seed;
    uint64_t throttled_bps = throttled_bps_env;
    {
      Workload probe = make(2);
      rede::SmpeExecutor threaded(probe.cluster.get(), smpe_options);
      CellResult survivor = RunRotCell(probe, threaded, rot);
      LH_CHECK_MSG(survivor.completed, "no survivable rot seed for scrub");
      seed = survivor.fault_seed;
      if (throttled_bps == 0) {
        throttled_bps =
            std::max<uint64_t>(64 * 1024, ReplicatedBytes(probe) / 2);
      }
    }
    struct ScrubRate {
      const char* mode;
      uint64_t bps;
      bool timed;
    };
    const ScrubRate rates[] = {{"none", 0, false},
                               {"throttled", throttled_bps, false},
                               {"unthrottled", UINT64_MAX, false},
                               {"timed_none", 0, true},
                               {"timed_throttled", throttled_bps, true}};
    // Each timing mode bounds its scrubbed cells against its own no-scrub
    // cell: the untimed series on p99 by the CPU-time rule below, the timed
    // series on p50 by kTimedP50Slack. The informational monotone check
    // reads the untimed series only.
    uint64_t prev_p99 = 0;
    uint64_t none_p99 = 0;
    uint64_t timed_none_p50 = 0;
    for (const ScrubRate& rate : rates) {
      Workload w = make(2);
      CellResult cell =
          RunScrubCell(w, smpe_options, rot, seed, rate.bps, rate.timed);
      EmitJson(ledger, w.name, "scrub", 2, rot, "threaded", rate.mode,
               rate.bps == UINT64_MAX ? 0 : rate.bps, cell);
      stats.cells++;
      if (!cell.completed || cell.checksum != baseline.checksum) {
        stats.checksums_agree = false;
      }
      if (cell.unrepairable != 0) stats.rf2_all_repaired = false;
      uint64_t& reference = rate.timed ? timed_none_p50 : none_p99;
      const uint64_t observed =
          rate.timed ? cell.deref_p50_us : cell.deref_p99_us;
      const uint64_t bound =
          rate.timed ? static_cast<uint64_t>(static_cast<double>(reference) *
                                             kTimedP50Slack)
                     : reference * 50 + 50000;
      if (rate.bps == 0) {
        reference = observed;
      } else if (reference > 0 && observed > bound) {
        // Bounded: background scrubbing may cost foreground latency but
        // must not starve it (kScrub holds the smallest slot share).
        std::printf("%s %s: foreground %s %llu us over its bound %llu us\n",
                    w.name.c_str(), rate.mode, rate.timed ? "p50" : "p99",
                    static_cast<unsigned long long>(observed),
                    static_cast<unsigned long long>(bound));
        stats.latency_bounded = false;
      }
      if (rate.timed) continue;
      if (cell.deref_p99_us + cell.deref_p99_us / 2 < prev_p99) {
        // Monotone within 1.5x slack for wall-clock noise.
        stats.p99_monotone = false;
      }
      prev_p99 = cell.deref_p99_us;
    }
  }

  std::printf(
      "\ncells=%llu; checksums all match fault-free baseline: %s; every "
      "rf=2 rot cell repaired (repairs>0, unrepairable==0): %s; profiles "
      "reconcile: %s; rf=1 rot cells failed kCorruption: %llu/%llu; "
      "foreground latency bounded under scrub (untimed p99, timed p50): %s "
      "(untimed p99 monotone in scrub rate: "
      "%s)\n",
      static_cast<unsigned long long>(stats.cells),
      stats.checksums_agree ? "yes" : "NO",
      stats.rf2_all_repaired ? "yes" : "NO",
      stats.rf2_all_reconcile ? "yes" : "NO",
      static_cast<unsigned long long>(stats.rf1_corruption_failures),
      static_cast<unsigned long long>(stats.rf1_rot_cells),
      stats.latency_bounded ? "yes" : "NO",
      stats.p99_monotone ? "yes" : "no (informational)");
  std::printf(
      "Expected shape: every completed cell checksums identical to the "
      "fault-free baseline (zero divergence), rf=2 rot cells heal via "
      "read-repair on both engines, rf=1 fails loudly, and background "
      "scrubbing costs bounded foreground p99 that grows with the scrub "
      "rate; timed, where repair writes queue with the foreground reads, "
      "the throttled pass keeps the median foreground dereference within "
      "%.1fx of the timed cell without a scrubber.\n",
      kTimedP50Slack);
  const bool passed = stats.checksums_agree && stats.rf2_all_repaired &&
                      stats.rf2_all_reconcile &&
                      stats.rf1_corruption_failures == stats.rf1_rot_cells &&
                      stats.latency_bounded;
  if (passed) ledger.Commit();
  return passed ? 0 : 1;
}
