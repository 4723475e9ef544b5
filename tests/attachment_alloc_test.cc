// Allocation regression test of the per-record index-access path: once a
// task is warm, PreProcess -> InlineLookup -> PostProcess over a KV index
// must not allocate per record. The attachment comes from the task's free
// list with its key and result lists' capacity kept, lookups and cache hits
// resolve into the record's own result slots, and PostProcess reads the
// results in place and recycles the attachment. Keys and values fit in the
// small-string buffer, so any allocation left is the engine's own.
//
// The packed store's batched flush has the same contract: once a batch
// handle is warm, a flush reads its pages into buffers the handle already
// owns and decodes in place, so it allocates nothing per page read and
// nothing per lookup beyond the value lists it returns.
//
// The binary replaces the global `operator new` with a counting one, so it
// stays out of the AddressSanitizer leg.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "efind/accessors/accessors.h"
#include "efind/stages.h"
#include "kvstore/kv_store.h"
#include "mapreduce/stage_chain.h"
#include "store/packed_store.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace efind {
namespace {

constexpr int kKeys = 24;            // Key domain.
constexpr size_t kCacheEntries = 16;  // < kKeys: the cache evicts.
constexpr int kWarmRecords = 2000;
constexpr int kMeasuredRecords = 20000;

/// Joins a record with the single KV value stored under its key.
class JoinOperator : public IndexOperator {
 public:
  std::string name() const override { return "alloc_join"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    if (results[0].empty() || results[0][0].empty()) return;
    out->Emit(Record(record.key, results[0][0][0].data));
  }
};

struct TaskRun {
  uint64_t allocations = 0;
  size_t outputs = 0;
  Counters counters;
};

/// Streams kWarmRecords and then kMeasuredRecords records through the
/// lookup chain of one task, counting the allocations of the measured ones.
TaskRun DriveOneTask(bool use_cache) {
  KvStoreOptions kv;
  KvStore store(kv);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(store.Put("k" + std::to_string(k),
                          IndexValue("v" + std::to_string(k)))
                    .ok());
  }
  auto op = std::make_shared<JoinOperator>();
  op->AddIndex(std::make_shared<KvIndexAccessor>("kv", &store));
  ClusterConfig config;
  OperatorRuntime runtime(1, config.num_nodes, kCacheEntries);
  const std::vector<std::shared_ptr<RecordStage>> stages = {
      std::make_shared<PreProcessStage>(op, &runtime, "efind.a"),
      std::make_shared<InlineLookupStage>(
          op, std::vector<InlineIndexTask>{{0, use_cache}}, &runtime, &config,
          kCacheEntries, "efind.a"),
      std::make_shared<PostProcessStage>(op, &runtime, "efind.a")};

  // A fixed pseudo-random key sequence: hits and evicting misses.
  std::vector<Record> input;
  input.reserve(kWarmRecords + kMeasuredRecords);
  uint64_t x = 7;
  for (int i = 0; i < kWarmRecords + kMeasuredRecords; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    input.emplace_back("k" + std::to_string((x >> 33) % kKeys), "v");
  }

  TaskRun run;
  std::vector<Record> sink;
  sink.reserve(input.size());
  {
    TaskContext ctx(0, 0, &run.counters);
    StageChain chain(&stages, &ctx, &sink);
    chain.Begin();
    for (int i = 0; i < kWarmRecords; ++i) chain.Push(std::move(input[i]));
    const uint64_t before = g_allocations.load();
    for (size_t i = kWarmRecords; i < input.size(); ++i) {
      chain.Push(std::move(input[i]));
    }
    run.allocations = g_allocations.load() - before;
    chain.Finish();
  }
  run.outputs = sink.size();
  return run;
}

void ExpectAllocationFree(const TaskRun& run) {
  EXPECT_EQ(run.outputs, static_cast<size_t>(kWarmRecords + kMeasuredRecords));
  EXPECT_LT(run.allocations * 100, static_cast<uint64_t>(kMeasuredRecords))
      << run.allocations << " allocations over " << kMeasuredRecords
      << " records";
}

TEST(AttachmentAllocTest, WarmTaskWithoutCacheDoesNotAllocatePerRecord) {
  const TaskRun run = DriveOneTask(/*use_cache=*/false);
  EXPECT_DOUBLE_EQ(run.counters.Get("efind.a.idx0.lookups"),
                   kWarmRecords + kMeasuredRecords);
  ExpectAllocationFree(run);
}

TEST(AttachmentAllocTest, WarmTaskWithCacheDoesNotAllocatePerRecord) {
  const TaskRun run = DriveOneTask(/*use_cache=*/true);
  // Both cache paths ran: hits into the slot, misses put into evicted nodes.
  const double hits = run.counters.Get("efind.a.idx0.cache_hits");
  const double lookups = run.counters.Get("efind.a.idx0.lookups");
  EXPECT_GT(hits, 0.0);
  EXPECT_GT(lookups, static_cast<double>(kKeys));
  EXPECT_DOUBLE_EQ(hits + lookups, kWarmRecords + kMeasuredRecords);
  ExpectAllocationFree(run);
}

TEST(AttachmentAllocTest, WarmPackedStoreFlushAllocatesOnlyValueLists) {
  store::PackedStoreOptions options;
  options.dir = ::testing::TempDir() + "efind_alloc_packed_store";
  options.page_bytes = 512;  // Several pages per partition.
  options.num_partitions = 4;
  options.num_nodes = 3;
  store::PackedStoreBuilder builder(options);
  for (int k = 0; k < 600; ++k) {
    builder.Add("k" + std::to_string(k), IndexValue("v" + std::to_string(k)));
  }
  std::string error;
  const auto packed = builder.Build(&error);
  ASSERT_NE(packed, nullptr) << error;
  PackedStoreAccessor accessor("alloc", packed.get());
  const std::unique_ptr<BatchedLookupHandle> handle = accessor.NewBatch();

  // 14 keys spread over the partitions plus 2 absent ones: 16 lookups.
  std::vector<std::string> keys;
  for (int k = 0; k < 14; ++k) keys.push_back("k" + std::to_string(k * 41));
  keys.push_back("absent1");
  keys.push_back("absent2");
  auto flush = [&] {
    for (const std::string& key : keys) handle->Submit(key);
    return handle->Flush();
  };
  const BatchedLookupOutcome warm = flush();
  ASSERT_EQ(warm.completions.size(), keys.size());

  const uint64_t before = g_allocations.load();
  const BatchedLookupOutcome outcome = flush();
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_EQ(outcome.completions.size(), keys.size());
  uint64_t value_lists = 0;
  for (const BatchedLookupCompletion& c : outcome.completions) {
    EXPECT_FALSE(c.error);
    if (!c.values.empty()) ++value_lists;
  }
  EXPECT_EQ(value_lists, 14u);
  EXPECT_EQ(outcome.distinct_pages, warm.distinct_pages);
  EXPECT_GT(outcome.distinct_pages, 4u);
  // One completion list, then one value list per found key.
  EXPECT_LE(allocations, 1 + value_lists)
      << allocations << " allocations for " << keys.size() << " lookups over "
      << outcome.distinct_pages << " pages";
}

}  // namespace
}  // namespace efind
