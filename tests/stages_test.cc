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

/// Fake index: value = "V(" + key + ")", counts lookups, fixed T_j.
class FakeAccessor : public IndexAccessor {
 public:
  std::string name() const override { return "fake"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    ++lookups;
    if (ik == "err") return Status::Internal("boom");
    if (ik == "none") return Status::NotFound();
    out->emplace_back("V(" + ik + ")");
    return Status::OK();
  }
  double ServiceSeconds(uint64_t) const override { return 1e-3; }
  int lookups = 0;
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
