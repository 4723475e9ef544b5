// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The chained-function stages that EFind's plan implementer splices into
// MapReduce jobs (paper Fig. 6-7). The runner composes them as follows:
//
//   baseline/cache:  PreProcessStage -> InlineLookupStage -> PostProcessStage
//   repartitioning:  ... -> ShuffleKeyStage | GroupReducer | (job boundary)
//                    -> GroupedLookupStage(remote) -> ... -> PostProcessStage
//   index locality:  same, with the shuffle partitioned by the index's own
//                    scheme, the next job's tasks placed on index hosts
//                    (input fetched remotely), and local lookups.
//
// Threading: one stage instance serves every task of a phase and tasks on
// different simulated nodes run concurrently (see stage.h). Stages therefore
// keep per-task state in the TaskContext, feed statistics through per-task
// collectors (`OperatorRuntime::TaskLocal`), and only keep per-node
// structures (lookup caches) in members — safe because a node's tasks are
// serialized on one strand. Counter names are interned once at construction
// (`CounterHandle`) so per-record increments build no strings.

#ifndef EFIND_EFIND_STAGES_H_
#define EFIND_EFIND_STAGES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/lru_cache.h"
#include "common/partition_scheme.h"
#include "efind/failover.h"
#include "efind/index_operator.h"
#include "efind/plan.h"
#include "efind/statistics.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/stage.h"

namespace efind {

namespace obs {
class ObsSession;
}  // namespace obs

/// Result list of one index lookup, cached per node.
using CachedResult = std::vector<IndexValue>;

/// The per-node lookup caches of one (operator, index) pair. Tasks running
/// on the same simulated node share a cache (paper §3.2 reduces redundancy
/// "at a single machine node").
class NodeCaches {
 public:
  NodeCaches(int num_nodes, size_t capacity);
  LruCache<std::string, CachedResult>& ForNode(int node);
  /// Aggregate miss ratio across nodes.
  double MissRatio() const;

 private:
  std::vector<std::unique_ptr<LruCache<std::string, CachedResult>>> caches_;
};

/// Runs `IndexOperator::PreProcess`, attaches the extracted key lists to the
/// record, and feeds the operator's statistics collector. The attachment
/// comes from the task's free list (`TaskContext::TakeAttachment`) with its
/// key and result lists emptied; `PreProcess` writes straight into its key
/// lists, and each result list gets one empty slot per key, which the
/// lookup stages fill in place.
class PreProcessStage : public RecordStage {
 public:
  PreProcessStage(std::shared_ptr<IndexOperator> op, OperatorRuntime* runtime,
                  std::string counter_prefix);

  std::string name() const override;
  void BeginTask(TaskContext* ctx) override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  OperatorRuntime* runtime_;
  std::string counter_prefix_;
  CounterHandle pre_inputs_;
};

/// Interned resilience counter handles of one lookup site (stage × index),
/// shared by the inline and grouped lookup stages (DESIGN.md §10). The
/// `efind.integrity.*` names are run-global: `injected == detected` by
/// construction (every injected corruption is caught by the end-to-end
/// checksum), and `efind.integrity.served_corrupt` is incremented nowhere —
/// the benches assert it stays 0.
struct ResilienceCounters {
  explicit ResilienceCounters(const std::string& base)
      : hedges(base + ".hedges"),
        hedge_wins(base + ".hedge_wins"),
        flaky_retries(base + ".flaky_retries"),
        corrupt_detected(base + ".corrupt_detected"),
        breaker_transitions(base + ".breaker_transitions"),
        breaker_short_circuits(base + ".breaker_short_circuits"),
        integrity_injected("efind.integrity.injected"),
        integrity_detected("efind.integrity.detected") {}

  CounterHandle hedges;
  CounterHandle hedge_wins;
  CounterHandle flaky_retries;
  CounterHandle corrupt_detected;
  CounterHandle breaker_transitions;
  CounterHandle breaker_short_circuits;
  CounterHandle integrity_injected;
  CounterHandle integrity_detected;
};

/// Interned run-global counter handles of the packed-store batched lookup
/// drivers (DESIGN.md §13): distinct device page reads, reads saved by
/// same-page coalescing, flushes issued, and lookups served through a batch.
struct StoreCounters {
  StoreCounters()
      : page_reads("efind.store.page_reads"),
        coalesced("efind.store.coalesced_page_reads"),
        batches("efind.store.batches"),
        batched_lookups("efind.store.batched_lookups") {}

  CounterHandle page_reads;
  CounterHandle coalesced;
  CounterHandle batches;
  CounterHandle batched_lookups;
};

/// One lookup site (stage × index): the index's accessor and everything the
/// per-lookup charge touches — the stage's cost model and failover charger,
/// the interned counter and resilience handles, the circuit breakers and the
/// latency histograms. Both lookup stages charge every lookup of a site
/// through one function (stages.cc).
struct LookupSite {
  /// `base` is the site's counter prefix (`<stage>.idx<j>`);
  /// `latency_metric` names its lookup-latency histogram under `base`.
  /// Metric ids intern here, on the orchestration thread at plan expansion.
  LookupSite(const IndexOperator& op, int index, const std::string& base,
             const ClusterConfig* config, const LookupFailover* failover,
             obs::ObsSession* session, const std::string& latency_metric);

  int index;
  IndexAccessor* accessor;
  // Batching capability of `accessor` (DESIGN.md §13), or null: lookups of
  // such an index resolve where the record reaches them.
  const BatchedLookupIndex* batched;
  const ClusterConfig* config;
  const LookupFailover* failover;  // Optional; null or inactive: healthy.
  obs::ObsSession* obs;            // Optional.
  CounterHandle lookups;
  CounterHandle lookup_errors;
  CounterHandle lookup_failovers;
  ResilienceCounters resilience;
  // Circuit breaker cells (null when the breaker is off or the index has no
  // partition scheme). Safe as stage state for the same reason the node
  // caches are: a node's tasks serialize on one strand, and a breaker cell
  // is (node, partition)-local.
  std::unique_ptr<BreakerBank> breakers;
  // Interned histogram ids (kInvalidMetric when observability is off): the
  // charged lookup latency, and the latency-spike seconds the fault model
  // injected.
  int latency_hist = -1;
  int injected_hist = -1;
};

/// Which indices an `InlineLookupStage` serves, and how.
struct InlineIndexTask {
  int index = 0;
  bool use_cache = false;
};

/// Performs baseline / lookup-cache index accesses in the task that holds
/// the record (no extra job). Remote-lookup time `(Sik+Siv)/BW + T_j` is
/// charged per actual lookup; cache probes charge T_cache. Lookups against
/// an accessor without `BatchedLookupIndex` resolve as the record reaches
/// them; store-backed lookups are buffered and resolved by a flush
/// (DESIGN.md §13), and records leave in arrival order either way.
class InlineLookupStage : public RecordStage {
 public:
  /// `failover` (optional, borrowed) activates the failure-aware charge
  /// path: down/degraded index hosts cost retries, backoff and replica
  /// failover time (DESIGN.md §7). Null or inactive keeps the original
  /// healthy-path charges bit-identical. `session` (optional, borrowed)
  /// attaches observability: per-record lookup-batch spans, failover
  /// instants, a per-task cache snapshot instant, and lookup latency
  /// histograms (DESIGN.md §8); null records nothing.
  InlineLookupStage(std::shared_ptr<IndexOperator> op,
                    std::vector<InlineIndexTask> tasks,
                    OperatorRuntime* runtime, const ClusterConfig* config,
                    size_t cache_capacity, std::string counter_prefix,
                    const LookupFailover* failover = nullptr,
                    obs::ObsSession* session = nullptr);

  std::string name() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;
  void EndTask(TaskContext* ctx, Emitter* out) override;

 private:
  // Per-task buffering state of the store-backed slots, and the flush that
  // serves every pending lookup in one coalesced sweep. A task has this
  // state only when some slot's accessor implements `BatchedLookupIndex`.
  struct BatchState;
  BatchState* BatchFor(TaskContext* ctx);
  void FlushBatch(BatchState* bs, TaskContext* ctx, Emitter* out,
                  OperatorTaskStats* stats);

  std::shared_ptr<IndexOperator> op_;
  std::vector<InlineIndexTask> tasks_;
  OperatorRuntime* runtime_;
  const ClusterConfig* config_;
  obs::ObsSession* obs_;
  std::string counter_prefix_;
  std::vector<LookupSite> sites_;          // Parallel to tasks_.
  std::vector<CounterHandle> cache_hits_;  // Parallel to tasks_.
  // Interned per-node cache hit/miss gauge ids: [t][node], only for cached
  // tasks with observability on (empty vectors otherwise). Gauges take the
  // last write in task-index absorb order — the node cache's cumulative
  // state after its final task, i.e. the run's end-of-job totals.
  std::vector<std::vector<int>> cache_hit_gauges_;
  std::vector<std::vector<int>> cache_miss_gauges_;
  // caches_[t] serves tasks_[t] when tasks_[t].use_cache.
  std::vector<std::unique_ptr<NodeCaches>> caches_;
  bool any_batched_ = false;  // Some site's accessor batches.
  StoreCounters store_counters_;
};

/// Strips the attachment, runs `IndexOperator::PostProcess` on the record
/// and the attachment's lookup results (read in place), and meters output
/// sizes. Then it hands the attachment back to the task's free list, which
/// keeps it only when this stage held the sole reference.
class PostProcessStage : public RecordStage {
 public:
  PostProcessStage(std::shared_ptr<IndexOperator> op,
                   OperatorRuntime* runtime, std::string counter_prefix);

  std::string name() const override;
  void BeginTask(TaskContext* ctx) override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  OperatorRuntime* runtime_;
  std::string counter_prefix_;
  // One empty result list per index, for a record without an attachment.
  const IndexResultLists no_results_;
};

/// Rekeys records by their (single) lookup key for index j, saving the
/// original key in the attachment, so the shuffle groups equal lookup keys
/// together (paper §3.3). Records that extracted a number of keys other
/// than one pass through unchanged (they skip the re-partitioned access and
/// resolve inline later; the optimizer only picks re-partitioning when every
/// record extracts exactly one key).
class ShuffleKeyStage : public RecordStage {
 public:
  ShuffleKeyStage(std::shared_ptr<IndexOperator> op, int index,
                  std::string counter_prefix);

  std::string name() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::shared_ptr<IndexOperator> op_;
  int index_;
  std::string counter_prefix_;
  CounterHandle shuffle_skipped_;
};

/// The shuffle job's reduce: passes records through in grouped order so the
/// downstream `GroupedLookupStage` sees equal lookup keys contiguously.
class GroupReducer : public Reducer {
 public:
  std::string name() const override { return "efind.group"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override;
};

/// Performs one lookup per *run* of equal lookup keys (records arrive
/// grouped after the shuffle job) and restores the original record keys.
/// Records that skipped the shuffle look up each of their keys remotely and
/// pass through. As in `InlineLookupStage`, an accessor without
/// `BatchedLookupIndex` is looked up where the record reaches it, and a
/// store-backed one through buffered batches.
///
/// `local` selects the index-locality cost model: lookups charge T_j only,
/// because the task was scheduled on a node hosting the co-partitioned
/// index partition; the input-movement cost `N1*Spre/BW` is charged by the
/// job's remote-input flag. Remote mode charges `(Sik+Siv)/BW + T_j`.
class GroupedLookupStage : public RecordStage {
 public:
  /// `failover` as in `InlineLookupStage`; in `local` mode a down or
  /// non-hosting task node forces the lookup off-node through the remote
  /// failover path (graceful index-locality degradation). `session` as in
  /// `InlineLookupStage` (lookup spans, failover instants, latency
  /// histogram).
  GroupedLookupStage(std::shared_ptr<IndexOperator> op, int index, bool local,
                     OperatorRuntime* runtime, const ClusterConfig* config,
                     std::string counter_prefix,
                     const LookupFailover* failover = nullptr,
                     obs::ObsSession* session = nullptr);

  std::string name() const override;
  void Process(Record record, TaskContext* ctx, Emitter* out) override;
  /// Flushes the task's remaining buffered store lookups.
  void EndTask(TaskContext* ctx, Emitter* out) override;

 private:
  // Per-task state (the last resolved run's result, and the records and
  // lookups waiting for a store flush) and the flush itself.
  struct BatchState;
  BatchState* BatchFor(TaskContext* ctx);
  void FlushBatch(BatchState* bs, TaskContext* ctx, Emitter* out,
                  OperatorTaskStats* stats);
  // The `grouped_lookup` span of one charged lookup that began at `t0`.
  void TraceLookup(TaskContext* ctx, double t0, bool local) const;

  std::shared_ptr<IndexOperator> op_;
  int index_;
  bool local_;
  OperatorRuntime* runtime_;
  const ClusterConfig* config_;
  obs::ObsSession* obs_;
  std::string counter_prefix_;
  LookupSite site_;
  CounterHandle lookup_reuses_;
  StoreCounters store_counters_;
};

/// Meters the original Map function's output bytes into the head operators'
/// statistics (the Smap term of Table 1). Pass-through otherwise.
class MapMeterStage : public RecordStage {
 public:
  explicit MapMeterStage(std::vector<OperatorRuntime*> head_runtimes);

  std::string name() const override { return "efind.map_meter"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override;

 private:
  std::vector<OperatorRuntime*> head_runtimes_;
};

/// MapReduce partitioner delegating to an index's partition scheme, so the
/// shuffle output is co-partitioned with the index (paper §3.4).
class SchemePartitioner : public Partitioner {
 public:
  explicit SchemePartitioner(const PartitionScheme* scheme)
      : scheme_(scheme) {}

  std::string name() const override { return "index_scheme"; }
  int Partition(std::string_view key, int num_partitions) const override {
    const int p = scheme_->PartitionOf(key);
    return num_partitions > 0 ? p % num_partitions : 0;
  }

 private:
  const PartitionScheme* scheme_;
};

}  // namespace efind

#endif  // EFIND_EFIND_STAGES_H_
