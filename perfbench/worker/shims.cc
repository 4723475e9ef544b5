#include "shims.h"

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "layer_clock.h"

namespace perfbench {
namespace {

using efind::BatchedLookupHandle;
using efind::BatchedLookupIndex;
using efind::BatchedLookupOutcome;
using efind::Emitter;
using efind::IndexAccessor;
using efind::IndexKeyLists;
using efind::IndexOperator;
using efind::IndexResultLists;
using efind::IndexValue;
using efind::PartitionScheme;
using efind::Record;
using efind::RecordStage;
using efind::Reducer;
using efind::Status;
using efind::TaskContext;

std::atomic<uint64_t> g_submits{0};
std::atomic<uint64_t> g_flushes{0};

/// Hands records to the engine's downstream stages. The time they take is
/// the engine's, so it is scoped apart from the user call that emitted.
class DownstreamEmitter : public Emitter {
 public:
  explicit DownstreamEmitter(Emitter* out) : out_(out) {}
  void Emit(Record record) override {
    LayerScope scope(Layer::kEngineDownstream);
    out_->Emit(std::move(record));
  }

 private:
  Emitter* out_;
};

class TimedAccessor : public IndexAccessor {
 public:
  TimedAccessor(std::shared_ptr<IndexAccessor> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  std::string name() const override { return inner_->name(); }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    LayerScope scope(layer_);
    return inner_->Lookup(ik, out);
  }
  double ServiceSeconds(uint64_t result_bytes) const override {
    return inner_->ServiceSeconds(result_bytes);
  }
  double RemoteOverheadSeconds() const override {
    return inner_->RemoteOverheadSeconds();
  }
  const PartitionScheme* partition_scheme() const override {
    return inner_->partition_scheme();
  }
  bool idempotent() const override { return inner_->idempotent(); }
  uint64_t ConfigFingerprint() const override {
    return inner_->ConfigFingerprint();
  }
  uint64_t VersionFingerprint() const override {
    return inner_->VersionFingerprint();
  }

 private:
  std::shared_ptr<IndexAccessor> inner_;
  Layer layer_;
};

class TimedHandle : public BatchedLookupHandle {
 public:
  explicit TimedHandle(std::unique_ptr<BatchedLookupHandle> inner)
      : inner_(std::move(inner)) {}

  uint64_t Submit(const std::string& ik) override {
    LayerScope scope(Layer::kStoreLookup);
    g_submits.fetch_add(1, std::memory_order_relaxed);
    return inner_->Submit(ik);
  }
  size_t pending() const override { return inner_->pending(); }
  BatchedLookupOutcome Flush() override {
    LayerScope scope(Layer::kStoreLookup);
    g_flushes.fetch_add(1, std::memory_order_relaxed);
    return inner_->Flush();
  }

 private:
  std::unique_ptr<BatchedLookupHandle> inner_;
};

/// Keeps the batched capability of an accessor that has it.
class TimedBatchedAccessor : public TimedAccessor, public BatchedLookupIndex {
 public:
  TimedBatchedAccessor(std::shared_ptr<IndexAccessor> inner,
                       const BatchedLookupIndex* batched)
      : TimedAccessor(std::move(inner), Layer::kStoreLookup),
        batched_(batched) {}

  std::unique_ptr<BatchedLookupHandle> NewBatch() const override {
    LayerScope scope(Layer::kStoreLookup);
    return std::make_unique<TimedHandle>(batched_->NewBatch());
  }

 private:
  const BatchedLookupIndex* batched_;  // Owned by the wrapped accessor.
};

std::shared_ptr<IndexAccessor> WrapAccessor(
    const std::shared_ptr<IndexAccessor>& inner) {
  if (const auto* batched =
          dynamic_cast<const BatchedLookupIndex*>(inner.get())) {
    return std::make_shared<TimedBatchedAccessor>(inner, batched);
  }
  return std::make_shared<TimedAccessor>(inner, Layer::kKvLookup);
}

class TimedOperator : public IndexOperator {
 public:
  explicit TimedOperator(std::shared_ptr<IndexOperator> inner)
      : inner_(std::move(inner)) {
    for (const auto& accessor : inner_->accessors()) {
      AddIndex(WrapAccessor(accessor));
    }
  }

  std::string name() const override { return inner_->name(); }
  std::string ReuseToken() const override { return inner_->ReuseToken(); }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    LayerScope scope(Layer::kPre);
    inner_->PreProcess(record, keys);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    LayerScope scope(Layer::kPost);
    DownstreamEmitter downstream(out);
    inner_->PostProcess(record, results, &downstream);
  }

 private:
  std::shared_ptr<IndexOperator> inner_;
};

class TimedStage : public RecordStage {
 public:
  explicit TimedStage(std::shared_ptr<RecordStage> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void BeginTask(TaskContext* ctx) override {
    LayerScope scope(Layer::kMapFn);
    inner_->BeginTask(ctx);
  }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    LayerScope scope(Layer::kMapFn);
    DownstreamEmitter downstream(out);
    inner_->Process(std::move(record), ctx, &downstream);
  }
  void EndTask(TaskContext* ctx, Emitter* out) override {
    LayerScope scope(Layer::kMapFn);
    DownstreamEmitter downstream(out);
    inner_->EndTask(ctx, &downstream);
  }

 private:
  std::shared_ptr<RecordStage> inner_;
};

class TimedReducer : public Reducer {
 public:
  explicit TimedReducer(std::shared_ptr<Reducer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void BeginTask(TaskContext* ctx) override {
    LayerScope scope(Layer::kReduceFn);
    inner_->BeginTask(ctx);
  }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    LayerScope scope(Layer::kReduceFn);
    DownstreamEmitter downstream(out);
    inner_->Reduce(key, std::move(values), ctx, &downstream);
  }
  void EndTask(TaskContext* ctx, Emitter* out) override {
    LayerScope scope(Layer::kReduceFn);
    DownstreamEmitter downstream(out);
    inner_->EndTask(ctx, &downstream);
  }

 private:
  std::shared_ptr<Reducer> inner_;
};

}  // namespace

efind::IndexJobConf TraceConf(const efind::IndexJobConf& conf) {
  efind::IndexJobConf out;
  out.set_name(conf.name());
  out.set_input_dataset(conf.input_dataset(), conf.input_dataset_version());
  out.set_num_reduce_tasks(conf.num_reduce_tasks());
  if (conf.mapper() != nullptr) {
    out.SetMapper(std::make_shared<TimedStage>(conf.mapper()));
  }
  if (conf.reducer() != nullptr) {
    out.SetReducer(std::make_shared<TimedReducer>(conf.reducer()));
  }
  for (const auto& op : conf.head_ops()) {
    out.AddHeadIndexOperator(std::make_shared<TimedOperator>(op));
  }
  for (const auto& op : conf.body_ops()) {
    out.AddBodyIndexOperator(std::make_shared<TimedOperator>(op));
  }
  for (const auto& op : conf.tail_ops()) {
    out.AddTailIndexOperator(std::make_shared<TimedOperator>(op));
  }
  return out;
}

StoreCallCounts GetStoreCallCounts() {
  return {g_submits.load(std::memory_order_relaxed),
          g_flushes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
