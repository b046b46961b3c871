// Multi-tenant traffic-mix bench: a serving-style workload driven through
// the JobScheduler — an analytical-scan burst (TPC-H Q5' plus claims
// Q1–Q3 from two analytics tenants) saturating the execution slots while
// two serving tenants fire primary-key lookups into the raw claims file.
//
// The same submission list runs twice on identical fresh engines: once
// with weighted start-time fair queueing (the scheduler default) and once
// with a single global FIFO. The harness reports per-class p50/p95/p99
// queue-wait / execution / end-to-end latency from the scheduler's
// LatencyHistograms, and LH_CHECKs that both modes return bit-identical
// answers — scheduling policy must never change results. The headline is
// the point-lookup p99: under scan saturation FIFO makes every lookup
// drain the whole scan backlog first, while fair dispatch lets lookups
// overtake queued scans (small cost, large weight), collapsing tail
// latency without starving the scans.
//
// Output: one JSON object per (mode, class) plus one checksum row per mode
// on stdout, mirrored to BENCH_traffic_mix.json (override with
// LH_BENCH_OUT).
//
// Env overrides: LH_BENCH_NODES, LH_BENCH_SF, LH_BENCH_THREADS,
// LH_BENCH_CLAIMS, LH_BENCH_SLOTS, LH_BENCH_ROUNDS, LH_BENCH_LOOKUPS,
// LH_BENCH_TIMESCALE, LH_BENCH_OUT.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "claims/generator.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/clock.h"
#include "common/json.h"
#include "io/key_codec.h"
#include "rede/builtin_derefs.h"
#include "rede/engine.h"
#include "sched/scheduler.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

using namespace lakeharbor;  // NOLINT — bench brevity

namespace {

struct MixConfig {
  uint32_t nodes = 4;
  double scale_factor = 0.003;
  uint64_t num_claims = 6000;
  size_t threads_per_node = 32;
  size_t execution_slots = 2;
  int scan_rounds = 2;    ///< scan burst = rounds × 2 tenants × 4 queries
  int lookups = 48;
  double time_scale = 0.1;
};

struct ClassReport {
  obs::HistogramSnapshot queue_wait_us;
  obs::HistogramSnapshot exec_us;
  obs::HistogramSnapshot total_us;
};

struct ModeOutcome {
  std::string checksum;  ///< order-independent digest of every job's answer
  ClassReport per_class[sched::kNumJobClasses];
  /// Per-(tenant, class) backlog snapshot taken mid-burst, right after the
  /// full submission wave — the moment every slot is saturated.
  std::vector<sched::SchedulerStats::FlowStats> mid_run_flows;
  uint64_t completed = 0;
  double wall_ms = 0.0;
};

uint64_t Fnv1a(uint64_t digest, const std::string& piece) {
  digest ^= std::hash<std::string>{}(piece);
  return digest * 1099511628211ull;
}

/// One full traffic-mix run on a fresh engine. The submission list is a
/// pure function of the configs, so fair and FIFO runs see byte-identical
/// workloads.
ModeOutcome RunMode(bool fair, const MixConfig& mix,
                    const tpch::TpchData& tpch_data,
                    const claims::ClaimsData& claims_data) {
  bench::BenchClusterConfig cluster_config;
  cluster_config.num_nodes = mix.nodes;
  sim::ClusterOptions cluster_options = bench::MakeClusterOptions(
      cluster_config);
  cluster_options.disk.time_scale = mix.time_scale;
  cluster_options.network.time_scale = mix.time_scale;
  sim::Cluster cluster(cluster_options);

  rede::EngineOptions engine_options;
  engine_options.smpe.threads_per_node = mix.threads_per_node;
  engine_options.smpe.cache.enabled = true;
  rede::Engine engine(&cluster, engine_options);
  LH_CHECK(tpch::LoadIntoLake(engine, tpch_data).ok());
  LH_CHECK(claims::LoadRawClaims(engine, claims_data).ok());

  // Scan-class jobs: Q5' plus the three claims queries.
  tpch::Q5Params q5_params = tpch::MakeQ5Params(0.05);
  auto q5_job = tpch::BuildQ5RedeJob(engine, q5_params);
  LH_CHECK(q5_job.ok());
  const std::vector<claims::ClaimsQuery> queries = claims::AllQueries();
  std::vector<rede::Job> claims_jobs;
  claims_jobs.reserve(queries.size());
  for (const claims::ClaimsQuery& query : queries) {
    auto job = claims::BuildRawClaimsJob(engine, query);
    LH_CHECK(job.ok());
    claims_jobs.push_back(*std::move(job));
  }

  // Point-lookup jobs: primary-key fetches spread over the claim id space
  // (ids are 1-based).
  auto claims_file = engine.catalog().Get(claims::names::kRawClaims);
  LH_CHECK(claims_file.ok());
  const uint64_t id_step =
      std::max<uint64_t>(1, claims_data.raw.size() / (mix.lookups + 1));
  std::vector<rede::Job> lookup_jobs;
  lookup_jobs.reserve(mix.lookups);
  for (int i = 0; i < mix.lookups; ++i) {
    const int64_t claim_id =
        static_cast<int64_t>(1 + (i * id_step) % claims_data.raw.size());
    auto job =
        rede::JobBuilder("pk-" + std::to_string(i))
            .Initial(rede::Tuple::Point(
                io::Pointer::Keyed(io::EncodeInt64Key(claim_id))))
            .Add(rede::MakePointDereferencer("pk-deref", *claims_file))
            .Build();
    LH_CHECK(job.ok());
    lookup_jobs.push_back(*std::move(job));
  }

  cluster.SetTimingEnabled(true);  // measured phase

  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = mix.execution_slots;
  sched_options.fair = fair;
  sched_options.io_tokens = 8;
  sched::JobScheduler scheduler(&engine.executor(rede::ExecutionMode::kSmpe),
                                sched_options);

  struct Pending {
    sched::JobHandlePtr handle;
    std::unique_ptr<rede::TupleCollector> collector;
    std::function<std::string(std::vector<rede::Tuple>)> summarize;
  };
  std::vector<Pending> pending;
  auto submit = [&](const rede::Job& job, const std::string& tenant,
                    sched::JobClass job_class,
                    std::function<std::string(std::vector<rede::Tuple>)>
                        summarize) {
    Pending p;
    p.collector = std::make_unique<rede::TupleCollector>();
    p.summarize = std::move(summarize);
    sched::JobSpec spec;
    spec.tenant = tenant;
    spec.job_class = job_class;
    spec.sink = p.collector->AsSink();
    auto handle = scheduler.Submit(job, std::move(spec));
    LH_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
    p.handle = *handle;
    pending.push_back(std::move(p));
  };

  auto q5_digest = [](std::vector<rede::Tuple> tuples) {
    auto summary = tpch::SummarizeRedeOutput(tuples);
    LH_CHECK(summary.ok());
    uint64_t digest = 1469598103934665603ull;
    for (const std::string& key : summary->keys) digest = Fnv1a(digest, key);
    return "q5:" + std::to_string(summary->rows) + ":" +
           std::to_string(digest);
  };
  auto claims_digest = [](std::vector<rede::Tuple> tuples) {
    auto answer = claims::SummarizeRawOutput(tuples);
    LH_CHECK(answer.ok());
    return "claims:" + std::to_string(answer->distinct_claims) + ":" +
           std::to_string(answer->total_expense);
  };
  auto lookup_digest = [](std::vector<rede::Tuple> tuples) {
    LH_CHECK_MSG(tuples.size() == 1, "pk lookup must return exactly one row");
    return std::string("pk:1");
  };

  // The scan burst first — by the time the lookups arrive every execution
  // slot is held by an analytical scan and a scan backlog is queued.
  const int64_t t0 = NowMicros();
  const std::string analytics[2] = {"analytics-a", "analytics-b"};
  for (int round = 0; round < mix.scan_rounds; ++round) {
    for (const std::string& tenant : analytics) {
      submit(*q5_job, tenant, sched::JobClass::kAnalyticalScan, q5_digest);
      for (const rede::Job& job : claims_jobs) {
        submit(job, tenant, sched::JobClass::kAnalyticalScan, claims_digest);
      }
    }
  }
  for (int i = 0; i < mix.lookups; ++i) {
    submit(lookup_jobs[i], i % 2 == 0 ? "serving-a" : "serving-b",
           sched::JobClass::kPointLookup, lookup_digest);
  }

  // Backlog snapshot while the burst is live: per-flow queue depth and
  // oldest-queued age under saturation.
  std::vector<sched::SchedulerStats::FlowStats> mid_run_flows =
      scheduler.stats().flows;

  // Order-independent digest: fold each job's answer digest with FNV (the
  // handles complete in scheduler order, but Fnv1a over the fixed
  // submission order is schedule-independent).
  uint64_t digest = 1469598103934665603ull;
  for (Pending& p : pending) {
    auto result = p.handle->Wait();
    LH_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    digest = Fnv1a(digest, p.summarize(p.collector->TakeTuples()));
  }
  ModeOutcome outcome;
  outcome.wall_ms = static_cast<double>(NowMicros() - t0) / 1000.0;
  outcome.checksum = std::to_string(digest);

  sched::SchedulerStats stats = scheduler.stats();
  LH_CHECK(stats.completed == pending.size());
  LH_CHECK(stats.failed == 0 && stats.rejected == 0);
  outcome.completed = stats.completed;
  for (size_t c = 0; c < sched::kNumJobClasses; ++c) {
    outcome.per_class[c].queue_wait_us = stats.per_class[c].queue_wait_us;
    outcome.per_class[c].exec_us = stats.per_class[c].exec_us;
    outcome.per_class[c].total_us = stats.per_class[c].total_us;
  }
  outcome.mid_run_flows = std::move(mid_run_flows);
  return outcome;
}

void EmitHist(Json* row, const char* prefix,
              const obs::HistogramSnapshot& hist) {
  row->Set(std::string(prefix) + "_p50",
           Json::MakeNumber(static_cast<double>(hist.P50())));
  row->Set(std::string(prefix) + "_p95",
           Json::MakeNumber(static_cast<double>(hist.P95())));
  row->Set(std::string(prefix) + "_p99",
           Json::MakeNumber(static_cast<double>(hist.P99())));
  row->Set(std::string(prefix) + "_mean", Json::MakeNumber(hist.Mean()));
}

void EmitMode(bench::Ledger& ledger, const char* mode,
              const ModeOutcome& outcome) {
  for (size_t c = 0; c < sched::kNumJobClasses; ++c) {
    const ClassReport& report = outcome.per_class[c];
    Json row = Json::MakeObject();
    row.Set("bench", Json::MakeString("traffic_mix"));
    row.Set("mode", Json::MakeString(mode));
    row.Set("class", Json::MakeString(
                         sched::JobClassToString(static_cast<sched::JobClass>(
                             static_cast<int>(c)))));
    row.Set("jobs",
            Json::MakeNumber(static_cast<double>(report.total_us.count)));
    EmitHist(&row, "queue_wait_us", report.queue_wait_us);
    EmitHist(&row, "exec_us", report.exec_us);
    EmitHist(&row, "total_us", report.total_us);
    std::string line = row.Dump();
    std::printf("%s\n", line.c_str());
    ledger.Add(line);
  }
  for (const sched::SchedulerStats::FlowStats& flow : outcome.mid_run_flows) {
    Json row = Json::MakeObject();
    row.Set("bench", Json::MakeString("traffic_mix"));
    row.Set("mode", Json::MakeString(mode));
    row.Set("flow_tenant", Json::MakeString(flow.tenant));
    row.Set("flow_class",
            Json::MakeString(sched::JobClassToString(flow.job_class)));
    row.Set("queue_depth",
            Json::MakeNumber(static_cast<double>(flow.queue_depth)));
    row.Set("oldest_queued_age_us",
            Json::MakeNumber(static_cast<double>(flow.oldest_queued_age_us)));
    std::string line = row.Dump();
    std::printf("%s\n", line.c_str());
    ledger.Add(line);
  }
  Json row = Json::MakeObject();
  row.Set("bench", Json::MakeString("traffic_mix"));
  row.Set("mode", Json::MakeString(mode));
  row.Set("checksum", Json::MakeString(outcome.checksum));
  row.Set("completed",
          Json::MakeNumber(static_cast<double>(outcome.completed)));
  row.Set("wall_ms", Json::MakeNumber(outcome.wall_ms));
  std::string line = row.Dump();
  std::printf("%s\n", line.c_str());
  ledger.Add(line);
}

}  // namespace

int main() {
  MixConfig mix;
  mix.nodes = static_cast<uint32_t>(bench::EnvOr("LH_BENCH_NODES", 4));
  mix.scale_factor = bench::EnvOr("LH_BENCH_SF", 0.003);
  mix.num_claims =
      static_cast<uint64_t>(bench::EnvOr("LH_BENCH_CLAIMS", 6000));
  mix.threads_per_node =
      static_cast<size_t>(bench::EnvOr("LH_BENCH_THREADS", 32));
  mix.execution_slots =
      static_cast<size_t>(bench::EnvOr("LH_BENCH_SLOTS", 2));
  mix.scan_rounds = static_cast<int>(bench::EnvOr("LH_BENCH_ROUNDS", 2));
  mix.lookups = static_cast<int>(bench::EnvOr("LH_BENCH_LOOKUPS", 48));
  mix.time_scale = bench::EnvOr("LH_BENCH_TIMESCALE", 0.1);

  tpch::TpchConfig tpch_config;
  tpch_config.scale_factor = mix.scale_factor;
  const tpch::TpchData tpch_data = tpch::Generate(tpch_config);
  claims::ClaimsConfig claims_config;
  claims_config.num_claims = mix.num_claims;
  const claims::ClaimsData claims_data = claims::GenerateClaims(claims_config);

  bench::PrintHeader(
      "Traffic mix — multi-tenant scheduling, fair (SFQ) vs FIFO under "
      "analytical-scan saturation");
  std::printf(
      "nodes=%u  SF=%.4f  claims=%llu  slots=%zu  scan-rounds=%d  "
      "lookups=%d  time-scale=%.2f\n\n",
      mix.nodes, mix.scale_factor,
      static_cast<unsigned long long>(mix.num_claims), mix.execution_slots,
      mix.scan_rounds, mix.lookups, mix.time_scale);

  bench::Ledger ledger("BENCH_traffic_mix.json");

  const ModeOutcome fair = RunMode(/*fair=*/true, mix, tpch_data, claims_data);
  EmitMode(ledger, "fair", fair);
  const ModeOutcome fifo = RunMode(/*fair=*/false, mix, tpch_data,
                                   claims_data);
  EmitMode(ledger, "fifo", fifo);

  // Scheduling policy must never change answers.
  LH_CHECK_MSG(fair.checksum == fifo.checksum,
               "fair and FIFO runs returned different answers");

  const auto& fair_lookup =
      fair.per_class[static_cast<size_t>(sched::JobClass::kPointLookup)];
  const auto& fifo_lookup =
      fifo.per_class[static_cast<size_t>(sched::JobClass::kPointLookup)];
  const auto& fair_scan =
      fair.per_class[static_cast<size_t>(sched::JobClass::kAnalyticalScan)];
  const auto& fifo_scan =
      fifo.per_class[static_cast<size_t>(sched::JobClass::kAnalyticalScan)];
  std::printf("\npoint-lookup  p50/p99 us:  fair %llu/%llu   fifo %llu/%llu\n",
              static_cast<unsigned long long>(fair_lookup.total_us.P50()),
              static_cast<unsigned long long>(fair_lookup.total_us.P99()),
              static_cast<unsigned long long>(fifo_lookup.total_us.P50()),
              static_cast<unsigned long long>(fifo_lookup.total_us.P99()));
  std::printf("analytical    p50/p99 us:  fair %llu/%llu   fifo %llu/%llu\n",
              static_cast<unsigned long long>(fair_scan.total_us.P50()),
              static_cast<unsigned long long>(fair_scan.total_us.P99()),
              static_cast<unsigned long long>(fifo_scan.total_us.P50()),
              static_cast<unsigned long long>(fifo_scan.total_us.P99()));
  const double p99_ratio =
      fair_lookup.total_us.P99() > 0
          ? static_cast<double>(fifo_lookup.total_us.P99()) /
                static_cast<double>(fair_lookup.total_us.P99())
          : 0.0;
  std::printf(
      "fair scheduling cuts point-lookup p99 by %.1fx vs FIFO "
      "(identical checksums: %s)\n",
      p99_ratio, fair.checksum.c_str());
  ledger.Commit();
  std::printf("results written to %s\n", ledger.path().c_str());
  return 0;
}
