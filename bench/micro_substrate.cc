// Micro-benchmarks (google-benchmark) for the substrate components: B-tree
// operations, order-preserving key codec, schema-on-read field access,
// claims parsing, MPMC queue and thread-pool overhead, and the simulated
// disk in counting mode. These bound the engine-side (non-simulated)
// overheads that sit under every figure harness.
//
// The timed rows measure what a modeled device access costs in wall time:
// one 500 us random read and one 30 us network hop, each submitted and
// waited for, on the blocking call and on the async submission. Their real
// time per iteration minus the modeled time is the timer's overshoot plus
// the hand-off to the waiting thread.

#include <benchmark/benchmark.h>

#include "claims/fhir.h"
#include "claims/format.h"
#include "claims/generator.h"
#include "common/json.h"
#include "index/bloom.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "concurrent/mpmc_queue.h"
#include "concurrent/thread_pool.h"
#include "index/btree.h"
#include "io/key_codec.h"
#include "sim/cluster.h"
#include "sim/disk.h"

namespace lakeharbor {
namespace {

void BM_BtreeInsert(benchmark::State& state) {
  const size_t fanout = static_cast<size_t>(state.range(0));
  Random rng(42);
  for (auto _ : state) {
    state.PauseTiming();
    index::Btree<int> tree(fanout);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      tree.Insert(io::EncodeInt64Key(static_cast<int64_t>(rng.Next() % 100000)),
                  i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BtreeInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_BtreeGet(benchmark::State& state) {
  index::Btree<int> tree(64);
  Random rng(42);
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(io::EncodeInt64Key(i), i);
  }
  std::vector<int> out;
  for (auto _ : state) {
    out.clear();
    tree.Get(io::EncodeInt64Key(static_cast<int64_t>(rng.Next() % 100000)),
             &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeGet);

void BM_BtreeRangeScan(benchmark::State& state) {
  index::Btree<int> tree(64);
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(io::EncodeInt64Key(i), i);
  }
  const int64_t width = state.range(0);
  Random rng(7);
  for (auto _ : state) {
    int64_t lo = static_cast<int64_t>(rng.Next() % (100000 - width));
    int64_t count = 0;
    tree.GetRange(io::EncodeInt64Key(lo), io::EncodeInt64Key(lo + width),
                  [&](const std::string&, const int&) {
                    ++count;
                    return true;
                  });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_BtreeRangeScan)->Arg(10)->Arg(1000);

void BM_EncodeInt64Key(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        io::EncodeInt64Key(static_cast<int64_t>(rng.Next())));
  }
}
BENCHMARK(BM_EncodeInt64Key);

void BM_FieldAt(benchmark::State& state) {
  std::string row =
      "12345|Customer#000012345|addr-QX81JZTQ5R|7|17-123-456|1234.56|AUTO";
  for (auto _ : state) {
    benchmark::DoNotOptimize(FieldAt(row, '|', 4));
  }
}
BENCHMARK(BM_FieldAt);

void BM_ClaimsParse(benchmark::State& state) {
  claims::ClaimsConfig config;
  config.num_claims = 1;
  claims::ClaimsData data = claims::GenerateClaims(config);
  io::Record record{std::string(data.raw[0])};
  for (auto _ : state) {
    auto claim = claims::ParseClaim(record);
    benchmark::DoNotOptimize(claim);
  }
}
BENCHMARK(BM_ClaimsParse);

void BM_ClaimsNarrowExtract(benchmark::State& state) {
  claims::ClaimsConfig config;
  config.num_claims = 1;
  claims::ClaimsData data = claims::GenerateClaims(config);
  io::Record record{std::string(data.raw[0])};
  for (auto _ : state) {
    auto has = claims::HasMedicineInRange(record, "5000", "5019");
    benchmark::DoNotOptimize(has);
  }
}
BENCHMARK(BM_ClaimsNarrowExtract);

void BM_JsonParseFhirBundle(benchmark::State& state) {
  claims::ClaimsConfig config;
  config.num_claims = 1;
  claims::ClaimsData data = claims::GenerateClaims(config);
  std::string bundle = claims::ClaimToFhirJson(data.parsed[0]);
  for (auto _ : state) {
    auto doc = Json::Parse(bundle);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bundle.size()));
}
BENCHMARK(BM_JsonParseFhirBundle);

void BM_BloomMightContain(benchmark::State& state) {
  index::BloomFilter filter(100000, 0.01);
  Random rng(9);
  for (int i = 0; i < 100000; ++i) {
    filter.Add(io::EncodeInt64Key(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MightContain(
        io::EncodeInt64Key(static_cast<int64_t>(rng.Next() % 200000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMightContain);

void BM_Fnv1a64(benchmark::State& state) {
  std::string key = io::EncodeInt64Key(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(key));
  }
}
BENCHMARK(BM_Fnv1a64);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  MpmcQueue<int> queue;
  for (auto _ : state) {
    queue.Push(1);
    benchmark::DoNotOptimize(queue.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop);

void BM_ThreadPoolRoundTrip(benchmark::State& state) {
  ThreadPool pool(4);
  for (auto _ : state) {
    std::atomic<bool> done{false};
    pool.Submit([&] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) {
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThreadPoolRoundTrip);

void BM_SimDiskCountingMode(benchmark::State& state) {
  sim::Disk disk(sim::DiskOptions{});  // timing off: pure counter cost
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.RandomRead(128));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimDiskCountingMode);

/// The perfbench device model's read and hop, timed at time scale 1.
sim::ClusterOptions TimedSubstrate() {
  sim::ClusterOptions options = sim::ClusterOptions::ForNodes(1);
  options.disk.random_read_latency_us = 500;
  options.network.message_latency_us = 30;
  options.EnableTiming(true);
  return options;
}

void BM_TimedRead(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  sim::Cluster cluster(TimedSubstrate());
  sim::Disk& disk = cluster.node(0).disk();
  for (auto _ : state) {
    if (async) {
      sim::CompletionLatch done;
      disk.SubmitRandomRead(128, 0, done.queue());
      benchmark::DoNotOptimize(done.Wait());
    } else {
      benchmark::DoNotOptimize(disk.RandomRead(128));
    }
  }
  state.counters["model_us"] = 500;
  state.SetLabel(async ? "async" : "blocking");
}
BENCHMARK(BM_TimedRead)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1000)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_TimedHop(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  sim::Cluster cluster(TimedSubstrate());
  sim::Network& network = cluster.network();
  for (auto _ : state) {
    if (async) {
      sim::CompletionLatch done;
      network.SubmitTransfer(64, 0, done.queue());
      benchmark::DoNotOptimize(done.Wait());
    } else {
      benchmark::DoNotOptimize(network.Transfer(64));
    }
  }
  state.counters["model_us"] = 30;
  state.SetLabel(async ? "async" : "blocking");
}
BENCHMARK(BM_TimedHop)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(5000)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lakeharbor

BENCHMARK_MAIN();
