// Unit tests of the chained-function stages the plan implementer splices
// into jobs (efind/stages.h), using a scripted fake accessor.

#include "efind/stages.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvstore/kv_store.h"

namespace efind {
namespace {

/// Fake index: value = "V(" + key + ")", counts lookups, fixed T_j. Like
/// every accessor, it replaces the result slot's contents.
class FakeAccessor : public IndexAccessor {
 public:
  std::string name() const override { return "fake"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    ++lookups;
    return Serve(ik, out);
  }
  double ServiceSeconds(uint64_t) const override { return 1e-3; }
  int lookups = 0;

  static Status Serve(const std::string& ik, std::vector<IndexValue>* out) {
    out->clear();
    if (ik == "err") return Status::Internal("boom");
    if (ik == "none") return Status::NotFound();
    out->emplace_back("V(" + ik + ")");
    return Status::OK();
  }
};

/// The same fake index behind the batching interface: its handle serves
/// each submitted key with `FakeAccessor::Serve` at flush, in ticket order,
/// and reports no pages.
class BatchedFakeAccessor : public FakeAccessor, public BatchedLookupIndex {
 public:
  std::unique_ptr<BatchedLookupHandle> NewBatch() const override {
    return std::make_unique<Handle>();
  }

 private:
  class Handle : public BatchedLookupHandle {
   public:
    uint64_t Submit(const std::string& ik) override {
      keys_.push_back(ik);
      return next_ticket_++;
    }
    size_t pending() const override { return keys_.size(); }
    BatchedLookupOutcome Flush() override {
      BatchedLookupOutcome outcome;
      uint64_t ticket = next_ticket_ - keys_.size();
      for (const std::string& ik : keys_) {
        BatchedLookupCompletion c;
        c.ticket = ticket++;
        const Status status = Serve(ik, &c.values);
        c.found = status.ok();
        c.error = !status.ok() && !status.IsNotFound();
        if (c.error) c.values.clear();
        outcome.completions.push_back(std::move(c));
      }
      keys_.clear();
      return outcome;
    }

   private:
    std::vector<std::string> keys_;
    uint64_t next_ticket_ = 0;
  };
};

/// Operator: one key per record (the record key), post emits value+joined.
class FakeOperator : public IndexOperator {
 public:
  std::string name() const override { return "fake_op"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    std::string joined = (!results[0].empty() && !results[0][0].empty())
                             ? results[0][0][0].data
                             : "<none>";
    out->Emit(Record(record.key, joined));
  }
};

struct VectorEmitter : Emitter {
  void Emit(Record r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

struct StageHarness {
  StageHarness() : ctx(0, 0, &counters) {}
  ClusterConfig config;
  Counters counters;
  TaskContext ctx;
  VectorEmitter sink;
  std::shared_ptr<FakeOperator> op = [] {
    auto op = std::make_shared<FakeOperator>();
    op->AddIndex(std::make_shared<FakeAccessor>());
    return op;
  }();
  FakeAccessor* accessor() {
    return static_cast<FakeAccessor*>(op->accessors()[0].get());
  }
};

TEST(PreProcessStageTest, AttachesKeysAndMeters) {
  StageHarness h;
  OperatorRuntime rt(1, 12, 16);
  PreProcessStage stage(h.op, &rt, "efind.t");
  stage.BeginTask(&h.ctx);
  stage.Process(Record("k1", "v"), &h.ctx, &h.sink);
  stage.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 1u);
  const Record& r = h.sink.records[0];
  ASSERT_NE(r.attachment, nullptr);
  ASSERT_EQ(r.attachment->keys.size(), 1u);
  EXPECT_EQ(r.attachment->keys[0], std::vector<std::string>{"k1"});
  EXPECT_EQ(r.attachment->results[0].size(), 1u);  // Sized, unfilled.
  // Statistics are collected per task and folded in at task end; flush the
  // context's pending merges to observe them mid-lifetime.
  h.ctx.FinalizeTaskState();
  EXPECT_EQ(rt.total_inputs(), 1u);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.pre.inputs"), 1.0);
}

TEST(InlineLookupStageTest, FillsResultsAndChargesTime) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, false}}, nullptr, &h.config, 16,
                           "efind.t");
  VectorEmitter mid;
  pre.Process(Record("k1", "v"), &h.ctx, &mid);
  const double before = h.ctx.sim_time();
  lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  EXPECT_GT(h.ctx.sim_time(), before + 1e-3);  // T_j charged.
  const Record& r = h.sink.records[0];
  ASSERT_EQ(r.attachment->results[0][0].size(), 1u);
  EXPECT_EQ(r.attachment->results[0][0][0].data, "V(k1)");
  EXPECT_EQ(h.accessor()->lookups, 1);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookups"), 1.0);
}

TEST(InlineLookupStageTest, CacheAvoidsSecondLookupOnSameNode) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, true}}, nullptr, &h.config, 16,
                           "efind.t");
  for (int i = 0; i < 3; ++i) {
    VectorEmitter mid;
    pre.Process(Record("same", "v"), &h.ctx, &mid);
    lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  }
  EXPECT_EQ(h.accessor()->lookups, 1);  // One miss, two hits.
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.cache_hits"), 2.0);
}

TEST(InlineLookupStageTest, LookupErrorsBecomeEmptyResults) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, false}}, nullptr, &h.config, 16,
                           "efind.t");
  VectorEmitter mid;
  pre.Process(Record("err", "v"), &h.ctx, &mid);
  lookup.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  EXPECT_TRUE(h.sink.records[0].attachment->results[0][0].empty());
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_errors"), 1.0);
}

TEST(ShuffleKeyStageTest, RekeysAndSavesOriginal) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  ShuffleKeyStage shuffle(h.op, 0, "efind.t");
  VectorEmitter mid;
  pre.Process(Record("orig", "v"), &h.ctx, &mid);
  // FakeOperator's key IS the lookup key; rename to observe the rekey.
  mid.records[0].attachment = [&] {
    auto a = std::make_shared<RecordAttachment>(*mid.records[0].attachment);
    a->keys[0] = {"lookup_key"};
    return a;
  }();
  shuffle.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  const Record& r = h.sink.records[0];
  EXPECT_EQ(r.key, "lookup_key");
  EXPECT_TRUE(r.attachment->has_saved_key);
  EXPECT_EQ(r.attachment->saved_key, "orig");
}

TEST(ShuffleKeyStageTest, MultiKeyRecordsPassThrough) {
  StageHarness h;
  ShuffleKeyStage shuffle(h.op, 0, "efind.t");
  Record rec("orig", "v");
  auto a = std::make_shared<RecordAttachment>();
  a->keys = {{"k1", "k2"}};
  a->results = {{{}, {}}};
  rec.attachment = a;
  shuffle.Process(std::move(rec), &h.ctx, &h.sink);
  EXPECT_EQ(h.sink.records[0].key, "orig");
  EXPECT_FALSE(h.sink.records[0].attachment->has_saved_key);
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.shuffle_skipped"), 1.0);
}

TEST(GroupedLookupStageTest, MemoDeduplicatesRuns) {
  StageHarness h;
  GroupedLookupStage grouped(h.op, 0, /*local=*/false, nullptr, &h.config,
                             "efind.t");
  grouped.BeginTask(&h.ctx);
  auto make = [&](const std::string& ik, const std::string& orig) {
    Record rec(ik, "v");
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{ik}};
    a->results = {{{}}};
    a->saved_key = orig;
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  // A grouped run: kA kA kA kB.
  grouped.Process(make("kA", "r1"), &h.ctx, &h.sink);
  grouped.Process(make("kA", "r2"), &h.ctx, &h.sink);
  grouped.Process(make("kA", "r3"), &h.ctx, &h.sink);
  grouped.Process(make("kB", "r4"), &h.ctx, &h.sink);
  EXPECT_EQ(h.accessor()->lookups, 2);  // One per distinct key.
  EXPECT_DOUBLE_EQ(h.counters.Get("efind.t.idx0.lookup_reuses"), 2.0);
  // Keys restored, results attached.
  EXPECT_EQ(h.sink.records[0].key, "r1");
  EXPECT_EQ(h.sink.records[2].key, "r3");
  EXPECT_EQ(h.sink.records[3].attachment->results[0][0][0].data, "V(kB)");
}

TEST(GroupedLookupStageTest, LocalLookupsChargeLessTime) {
  StageHarness h;
  Counters c2;
  TaskContext remote_ctx(0, 0, &h.counters), local_ctx(0, 0, &c2);
  GroupedLookupStage remote(h.op, 0, false, nullptr, &h.config, "efind.r");
  GroupedLookupStage local(h.op, 0, true, nullptr, &h.config, "efind.l");
  auto make = [&] {
    Record rec("kA", std::string(1000, 'x'));
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{"kA"}};
    a->results = {{{}}};
    a->saved_key = "r";
    a->has_saved_key = true;
    rec.attachment = a;
    return rec;
  };
  remote.BeginTask(&remote_ctx);
  local.BeginTask(&local_ctx);
  VectorEmitter s1, s2;
  remote.Process(make(), &remote_ctx, &s1);
  local.Process(make(), &local_ctx, &s2);
  EXPECT_GT(remote_ctx.sim_time(), local_ctx.sim_time());
}

// ---------------------------------------------------------------------------
// A synchronous accessor and a batching one over the same index must be
// indistinguishable downstream: same records in the same order with the
// same results, and the same lookup counters. The batching double flushes
// at depth 2, so lookups resolve a record or two after they are reached.

/// A record carrying `keys` for index 0; `saved_key` non-empty marks it as
/// re-keyed by the shuffle (grouped), its key being the lookup key.
Record WithKeys(const std::string& key, std::vector<std::string> keys,
                const std::string& saved_key = "") {
  Record rec(key, "v:" + key);
  auto a = std::make_shared<RecordAttachment>();
  a->results = {std::vector<CachedResult>(keys.size())};
  a->keys = {std::move(keys)};
  a->saved_key = saved_key;
  a->has_saved_key = !saved_key.empty();
  rec.attachment = a;
  return rec;
}

/// Key, value and attached results of every emitted record, in order.
std::vector<std::string> Emitted(const std::vector<Record>& records) {
  std::vector<std::string> out;
  for (const Record& r : records) {
    std::string s = r.key + " " + r.value;
    if (r.attachment) {
      for (const auto& per_key : r.attachment->results) {
        for (const auto& values : per_key) {
          s += " [";
          for (const auto& v : values) s += v.data;
          s += "]";
        }
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct DriveResult {
  std::vector<std::string> emitted;
  Counters counters;
};

/// Runs `records` through a stage built by `make` over `accessor`, as one
/// task at store batch depth 2.
template <typename MakeStage>
DriveResult Drive(std::shared_ptr<IndexAccessor> accessor,
                  std::vector<Record> records, MakeStage make) {
  auto op = std::make_shared<FakeOperator>();
  op->AddIndex(std::move(accessor));
  ClusterConfig config;
  config.store_batch_depth = 2;
  DriveResult result;
  VectorEmitter sink;
  {
    TaskContext ctx(0, 0, &result.counters);
    auto stage = make(op, &config);
    stage->BeginTask(&ctx);
    for (Record& r : records) stage->Process(std::move(r), &ctx, &sink);
    stage->EndTask(&ctx, &sink);
  }
  result.emitted = Emitted(sink.records);
  return result;
}

void ExpectSameDownstream(const DriveResult& sync, const DriveResult& batched,
                          size_t expected_records) {
  EXPECT_EQ(sync.emitted.size(), expected_records);
  EXPECT_EQ(sync.emitted, batched.emitted);
  for (const char* name : {"lookups", "cache_hits", "lookup_reuses",
                           "lookup_errors"}) {
    const std::string counter = std::string("efind.t.idx0.") + name;
    EXPECT_EQ(sync.counters.Get(counter), batched.counters.Get(counter))
        << counter;
  }
}

TEST(LookupDriverAgreementTest, InlineSyncAndBatchedAccessorsAgree) {
  auto records = [] {
    std::vector<Record> r;
    r.push_back(WithKeys("r1", {"kA"}));
    r.push_back(WithKeys("r2", {"kA"}));  // Hit on a key still pending.
    r.push_back(Record("plain", "no attachment"));
    r.push_back(WithKeys("r3", {}));       // Zero keys.
    r.push_back(WithKeys("r4", {"kB", "err"}));  // Two keys, one error.
    r.push_back(WithKeys("r5", {"kB"}));   // Cached repeat.
    r.push_back(WithKeys("r6", {"none", "kC"}));
    r.push_back(WithKeys("r7", {"kA"}));
    return r;
  };
  auto inline_stage = [](std::shared_ptr<IndexOperator> op,
                         const ClusterConfig* config) {
    return std::make_unique<InlineLookupStage>(
        op, std::vector<InlineIndexTask>{{0, true}}, nullptr, config, 16,
        "efind.t");
  };
  const DriveResult sync =
      Drive(std::make_shared<FakeAccessor>(), records(), inline_stage);
  const DriveResult batched =
      Drive(std::make_shared<BatchedFakeAccessor>(), records(), inline_stage);
  ExpectSameDownstream(sync, batched, 8);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.lookups"), 5.0);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.cache_hits"), 3.0);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.lookup_errors"), 1.0);
  EXPECT_EQ(batched.counters.Get("efind.store.batches"), 2.0);
}

TEST(LookupDriverAgreementTest, GroupedSyncAndBatchedAccessorsAgree) {
  auto records = [] {
    std::vector<Record> r;
    r.push_back(WithKeys("kA", {"kA"}, "r1"));  // A run of kA.
    r.push_back(WithKeys("kA", {"kA"}, "r2"));
    r.push_back(WithKeys("p1", {}));             // Pass-through, 0 keys.
    r.push_back(WithKeys("p2", {"kX", "err"}));  // Pass-through, 2 keys.
    r.push_back(WithKeys("kB", {"kB"}, "r3"));
    r.push_back(WithKeys("kB", {"kB"}, "r4"));
    r.push_back(WithKeys("kC", {"kC"}, "r5"));   // Flushes at depth 2...
    r.push_back(WithKeys("kC", {"kC"}, "r6"));   // ...and the run goes on.
    r.push_back(WithKeys("kC", {"kC"}, "r7"));
    r.push_back(WithKeys("err", {"err"}, "r8"));
    r.push_back(WithKeys("err", {"err"}, "r9"));
    return r;
  };
  auto grouped_stage = [](std::shared_ptr<IndexOperator> op,
                          const ClusterConfig* config) {
    return std::make_unique<GroupedLookupStage>(op, 0, /*local=*/false,
                                                nullptr, config, "efind.t");
  };
  const DriveResult sync =
      Drive(std::make_shared<FakeAccessor>(), records(), grouped_stage);
  const DriveResult batched =
      Drive(std::make_shared<BatchedFakeAccessor>(), records(), grouped_stage);
  ExpectSameDownstream(sync, batched, 11);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.lookups"), 6.0);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.lookup_reuses"), 5.0);
  EXPECT_EQ(sync.counters.Get("efind.t.idx0.lookup_errors"), 2.0);
  EXPECT_GT(batched.counters.Get("efind.store.batches"), 1.0);
  EXPECT_EQ(sync.counters.Get("efind.store.batches"), 0.0);
}

TEST(PostProcessStageTest, StripsAttachmentAndCallsOperator) {
  // Declared first so it outlives the harness's task context, whose
  // destructor folds the task's statistics into it.
  OperatorRuntime rt(1, 12, 16);
  StageHarness h;
  PostProcessStage post(h.op, &rt, "efind.t");
  Record rec("k1", "v");
  auto a = std::make_shared<RecordAttachment>();
  a->keys = {{"k1"}};
  a->results = {{{IndexValue("V(k1)")}}};
  rec.attachment = a;
  post.BeginTask(&h.ctx);
  post.Process(std::move(rec), &h.ctx, &h.sink);
  post.EndTask(&h.ctx, &h.sink);
  ASSERT_EQ(h.sink.records.size(), 1u);
  EXPECT_EQ(h.sink.records[0].value, "V(k1)");
  EXPECT_EQ(h.sink.records[0].attachment, nullptr);
}

// ---------------------------------------------------------------------------
// Attachment recycling: PostProcess hands a record's attachment back to the
// task's free list and PreProcess takes from it, but only an attachment the
// stage held alone may be reused.

void ExpectSameAttachment(const RecordAttachment& actual,
                          const RecordAttachment& expected) {
  EXPECT_EQ(actual.keys, expected.keys);
  EXPECT_EQ(actual.results, expected.results);
  EXPECT_EQ(actual.saved_key, expected.saved_key);
  EXPECT_EQ(actual.has_saved_key, expected.has_saved_key);
}

TEST(AttachmentRecyclingTest, SoleOwnerAttachmentIsReused) {
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  PostProcessStage post(h.op, nullptr, "efind.t");
  VectorEmitter mid;
  pre.Process(Record("k1", "v"), &h.ctx, &mid);
  const RecordAttachment* first = mid.records[0].attachment.get();
  post.Process(std::move(mid.records[0]), &h.ctx, &h.sink);
  pre.Process(Record("k2", "v"), &h.ctx, &mid);
  ASSERT_EQ(mid.records.size(), 2u);
  EXPECT_EQ(mid.records[1].attachment.get(), first);
  // Reset for the new record: its own key, one empty result slot.
  EXPECT_EQ(mid.records[1].attachment->keys,
            (std::vector<std::vector<std::string>>{{"k2"}}));
  ASSERT_EQ(mid.records[1].attachment->results.size(), 1u);
  ASSERT_EQ(mid.records[1].attachment->results[0].size(), 1u);
  EXPECT_TRUE(mid.records[1].attachment->results[0][0].empty());
}

TEST(AttachmentRecyclingTest, SharedAttachmentIsNeverRecycled) {
  constexpr int kMoreRecords = 100;
  StageHarness h;
  PreProcessStage pre(h.op, nullptr, "efind.t");
  InlineLookupStage lookup(h.op, {{0, true}}, nullptr, &h.config, 16,
                           "efind.t");
  PostProcessStage post(h.op, nullptr, "efind.t");
  // An input split's record with in-flight state, and a second copy of it.
  InputSplit split;
  {
    Record rec("held", "v");
    auto a = std::make_shared<RecordAttachment>();
    a->keys = {{"held"}};
    a->results = {{{IndexValue("V(held)")}}};
    a->saved_key = "orig";
    a->has_saved_key = true;
    rec.attachment = std::move(a);
    split.records.push_back(std::move(rec));
  }
  const RecordAttachment expected = *split.records[0].attachment;
  const Record copy = split.records[0];

  // The shared attachment reaches PostProcess, then PreProcess (which must
  // copy it before writing), then N more records cycle through the chain
  // and write keys and results into whatever attachments they get.
  post.Process(split.records[0], &h.ctx, &h.sink);
  pre.Process(copy, &h.ctx, &h.sink);
  for (int i = 0; i < kMoreRecords; ++i) {
    VectorEmitter after_pre, after_lookup;
    pre.Process(Record("k" + std::to_string(i), "v"), &h.ctx, &after_pre);
    ASSERT_EQ(after_pre.records.size(), 1u);
    EXPECT_NE(after_pre.records[0].attachment.get(),
              split.records[0].attachment.get());
    lookup.Process(std::move(after_pre.records[0]), &h.ctx, &after_lookup);
    ASSERT_EQ(after_lookup.records.size(), 1u);
    post.Process(std::move(after_lookup.records[0]), &h.ctx, &h.sink);
  }
  ASSERT_EQ(h.sink.records.size(), static_cast<size_t>(kMoreRecords + 2));
  EXPECT_EQ(h.sink.records.back().value, "V(k99)");
  ExpectSameAttachment(*split.records[0].attachment, expected);
  ExpectSameAttachment(*copy.attachment, expected);
  EXPECT_EQ(split.records[0].attachment, copy.attachment);
}

TEST(SchemePartitionerTest, DelegatesToScheme) {
  HashPartitionScheme scheme(32, 12, 3);
  SchemePartitioner partitioner(&scheme);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(partitioner.Partition(key, 32), scheme.PartitionOf(key));
  }
}

TEST(NodeCachesTest, PerNodeIsolation) {
  NodeCaches caches(4, 8);
  caches.ForNode(0).Put("k", {IndexValue("v")});
  CachedResult out;
  EXPECT_TRUE(caches.ForNode(0).Get("k", &out));
  EXPECT_FALSE(caches.ForNode(1).Get("k", &out));
  EXPECT_LT(caches.MissRatio(), 1.0);
}

}  // namespace
}  // namespace efind
