// Allocation budget of the async SMPE hot path. This binary replaces the
// global operator new with a counting one, runs Q5' untimed on the async
// engine and on the partitioned executor (Fig 7's ReDe without SMPE), and
// holds the async engine's heap allocations per record access within a
// fixed margin of the partitioned executor's, and the partitioned
// executor's under a fixed ceiling.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "rede/async_executor.h"
#include "rede/engine.h"
#include "rede/partitioned_executor.h"
#include "sim/cluster.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lakeharbor::rede {
namespace {

/// Extra heap allocations per record access the async engine may make over
/// the partitioned executor on Q5' at sf 0.05, selectivity 1 (8 nodes, 4
/// async workers, untimed). Measured gaps: +6.4 (17.4 against 11.1) when
/// each task took a shared frame, a heap dispatch thunk, a heap attempt
/// callback and a heap completion thunk; +1.8 (12.0 against 10.2) with one
/// frame per task and completions parked by value. The margin sits halfway.
constexpr double kMaxExtraAllocsPerAccess = 4.1;

/// Ceiling on the partitioned executor's own heap allocations per record
/// access on the same run, where every io read is a blocking one. The
/// margin above is relative, so an allocation added to every io read (a
/// key copy, a heap completion tag) raises both engines and still passes
/// it. Measured: 10.17 (RelWithDebInfo); one more allocation per point
/// read adds about 1.0.
constexpr double kMaxPartitionedAllocsPerAccess = 10.5;

struct Measure {
  uint64_t allocations = 0;
  uint64_t accesses = 0;
  uint64_t rows = 0;
  double PerAccess() const {
    return static_cast<double>(allocations) / static_cast<double>(accesses);
  }
};

Measure RunQ5(Engine& engine, Executor& executor, const Job& job) {
  std::atomic<uint64_t> rows{0};
  const ResultSink sink = [&rows](const Tuple&) {
    rows.fetch_add(1, std::memory_order_relaxed);
  };
  const uint64_t accesses_before = engine.catalog().TotalRecordAccesses();
  const uint64_t allocations_before = g_allocations.load();
  auto result = executor.Execute(job, sink);
  Measure m;
  m.allocations = g_allocations.load() - allocations_before;
  m.accesses = engine.catalog().TotalRecordAccesses() - accesses_before;
  m.rows = rows.load();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return m;
}

TEST(AllocationBudget, AsyncAllocationsPerRecordAccessStayNearPartitioned) {
  tpch::TpchConfig config;
  config.scale_factor = 0.05;
  const tpch::TpchData data = tpch::Generate(config);
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(8));
  Engine engine(&cluster, EngineOptions{});
  ASSERT_TRUE(tpch::LoadIntoLake(engine, data).ok());
  auto job = tpch::BuildQ5RedeJob(engine, tpch::MakeQ5Params(1.0));
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  SmpeOptions async_options;
  async_options.engine = SmpeEngine::kAsync;
  async_options.async_workers = 4;
  AsyncExecutor async(&cluster, async_options);
  PartitionedExecutor partitioned(&cluster);

  const Measure a = RunQ5(engine, async, *job);
  const Measure p = RunQ5(engine, partitioned, *job);
  ASSERT_GT(p.accesses, 0u);
  // Same job, same data: the same accesses and answers.
  EXPECT_EQ(a.accesses, p.accesses);
  EXPECT_EQ(a.rows, p.rows);
  std::printf("allocations per record access: async %.2f, partitioned %.2f "
              "(%llu accesses)\n",
              a.PerAccess(), p.PerAccess(),
              static_cast<unsigned long long>(p.accesses));
  std::printf("ceilings: async %.2f (partitioned + %.2f), partitioned %.2f\n",
              p.PerAccess() + kMaxExtraAllocsPerAccess,
              kMaxExtraAllocsPerAccess, kMaxPartitionedAllocsPerAccess);
  EXPECT_LE(a.PerAccess(), p.PerAccess() + kMaxExtraAllocsPerAccess);
  EXPECT_LE(p.PerAccess(), kMaxPartitionedAllocsPerAccess);
}

}  // namespace
}  // namespace lakeharbor::rede
