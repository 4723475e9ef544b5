#include "efind/stages.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"

namespace efind {

namespace {

uint64_t ResultBytes(const CachedResult& values) {
  uint64_t n = 0;
  for (const auto& v : values) n += v.size_bytes();
  return n;
}

std::string RatioStr(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// Copy-on-write helper for a record's (non-null) attachment. When this
// record holds the only reference (the common case: PreProcess takes the
// attachment from the task's free list and downstream stages hand the
// record along one at a time), the attachment is mutated in place; a
// genuinely shared one (records still referenced by an input split or a
// shuffle batch) is deep-copied. The uniqueness check is race-free:
// holding the sole reference means no other thread has a handle to copy
// from.
std::shared_ptr<RecordAttachment> MutableAttachment(Record* record) {
  if (record->attachment.use_count() == 1) {
    return std::const_pointer_cast<RecordAttachment>(
        std::move(record->attachment));
  }
  return std::make_shared<RecordAttachment>(*record->attachment);
}

// Post-charge bookkeeping of a failure-aware lookup: failover/resilience
// counters, the fault-clean statistics channel, obs instants
// (lookup_failover, lookup_hedge, integrity_retry, breaker_transition), and
// the injected-latency histogram (DESIGN.md §10).
void RecordChargeOutcome(const LookupCharge& charge, const LookupSite& site,
                         TaskContext* ctx, OperatorTaskStats* stats) {
  const int j = site.index;
  const ResilienceCounters& rc = site.resilience;
  obs::ObsSession* obs = site.obs;
  Counters* counters = ctx->counters();
  if (charge.failed_over) counters->Increment(site.lookup_failovers);
  if (charge.hedges > 0) {
    counters->Increment(rc.hedges, charge.hedges);
    if (charge.hedge_won) counters->Increment(rc.hedge_wins);
  }
  if (charge.flaky_errors > 0) {
    counters->Increment(rc.flaky_retries, charge.flaky_errors);
  }
  if (charge.corrupt_detected > 0) {
    counters->Increment(rc.corrupt_detected, charge.corrupt_detected);
    counters->Increment(rc.integrity_injected, charge.corrupt_detected);
    counters->Increment(rc.integrity_detected, charge.corrupt_detected);
  }
  if (charge.breaker_short_circuit) {
    counters->Increment(rc.breaker_short_circuits);
  }
  if (charge.breaker_transition_to != 0) {
    counters->Increment(rc.breaker_transitions);
  }
  if (stats != nullptr) {
    stats->LookupAvailability(j, charge.excess_sec, charge.primary_down,
                              charge.failed_over);
    stats->LookupResilience(j, charge.hedges, charge.hedge_won,
                            charge.flaky_errors, charge.corrupt_detected,
                            charge.breaker_short_circuit);
  }
  if (obs != nullptr) {
    obs::TaskTrace* tt = obs->trace().TaskLocal(ctx);
    if (charge.failed_over) {
      tt->Instant("lookup_failover", "fault", ctx->sim_time(),
                  {{"index", std::to_string(j)},
                   {"attempts", std::to_string(charge.attempts)}});
    }
    if (charge.hedges > 0) {
      tt->Instant("lookup_hedge", "resilience", ctx->sim_time(),
                  {{"index", std::to_string(j)},
                   {"won", charge.hedge_won ? "1" : "0"}});
    }
    if (charge.corrupt_detected > 0) {
      tt->Instant("integrity_retry", "resilience", ctx->sim_time(),
                  {{"kind", "lookup"},
                   {"attempts", std::to_string(charge.corrupt_detected)}});
    }
    if (charge.breaker_transition_to != 0) {
      tt->Instant("breaker_transition", "resilience", ctx->sim_time(),
                  {{"node", std::to_string(ctx->node_id())},
                   {"partition", std::to_string(charge.partition)},
                   {"from", BreakerBank::ToString(static_cast<BreakerBank::State>(
                                charge.breaker_transition_from - 1))},
                   {"to", BreakerBank::ToString(static_cast<BreakerBank::State>(
                              charge.breaker_transition_to - 1))}});
    }
    if (charge.injected_latency_sec > 0.0 && site.injected_hist >= 0) {
      obs->metrics().TaskLocal(ctx)->Observe(site.injected_hist,
                                             charge.injected_latency_sec);
    }
  }
}

// The per-lookup charge: every lookup any stage performs is accounted here
// and nowhere else — inline misses and grouped runs resolved where the
// record reaches them, pass-through records' keys, and both stages' store
// flushes. In order: the error counter (a failed lookup is charged as an
// empty result), the service time, the failover / local / remote charge,
// the lookup counter, the lookup statistics, and the latency histogram
// (sim time since `t0`). `local` selects the index-locality charge, T_j
// only (paper Eq. 4).
void ChargeLookup(const LookupSite& site, const std::string& ik, bool error,
                  bool local, double t0, CachedResult* values,
                  TaskContext* ctx, OperatorTaskStats* stats) {
  if (error) {
    ctx->counters()->Increment(site.lookup_errors);
    values->clear();
  }
  const uint64_t result_bytes = ResultBytes(*values);
  const double service = site.accessor->ServiceSeconds(result_bytes);
  if (site.failover != nullptr && site.failover->active()) {
    const LookupCharge charge = site.failover->Resilient(
        *site.accessor, ik, result_bytes, service, ctx->node_id(), local,
        ctx->sim_time(), site.breakers.get());
    ctx->AddSimTime(charge.seconds);
    RecordChargeOutcome(charge, site, ctx, stats);
  } else if (local) {
    ctx->AddSimTime(service);
  } else {
    ctx->AddSimTime(service + site.accessor->RemoteOverheadSeconds() +
                    site.config->RemoteLookupSeconds(ik.size() +
                                                     result_bytes));
  }
  ctx->counters()->Increment(site.lookups);
  if (stats != nullptr) {
    stats->LookupPerformed(site.index, ik.size(), result_bytes, service);
  }
  if (site.obs != nullptr) {
    site.obs->metrics().TaskLocal(ctx)->Observe(site.latency_hist,
                                                ctx->sim_time() - t0);
  }
}

// Looks `ik` up synchronously where the record reaches it, into the
// result slot `*out` (the accessor replaces its contents, keeping its
// capacity), and charges it.
void LookupNow(const LookupSite& site, const std::string& ik, bool local,
               double t0, TaskContext* ctx, OperatorTaskStats* stats,
               CachedResult* out) {
  const Status status = site.accessor->Lookup(ik, out);
  ChargeLookup(site, ik, !status.ok() && !status.IsNotFound(), local, t0,
               out, ctx, stats);
}

// One flush's completions indexed by `ticket - base` (null where none came
// back: charged as an empty result).
std::vector<BatchedLookupCompletion*> ByTicket(BatchedLookupOutcome* outcome,
                                               uint64_t base, size_t n) {
  std::vector<BatchedLookupCompletion*> by_ticket(n, nullptr);
  for (auto& c : outcome->completions) {
    const uint64_t i = c.ticket - base;
    if (i < n) by_ticket[i] = &c;
  }
  return by_ticket;
}

// Moves a completion's values into `*values`; returns whether it failed.
bool TakeCompletion(BatchedLookupCompletion* c, CachedResult* values) {
  if (c == nullptr) return false;
  if (c->error) return true;
  *values = std::move(c->values);
  return false;
}

// Device-side accounting of one batched-store flush (DESIGN.md §13): the
// whole batch's distinct pages are charged as overlapped device waves
// (`PageBatchSeconds`), the run-global `efind.store.*` counters record what
// coalescing saved, and the pages feed the Nipl_j statistic behind the cost
// model's page-read term. The per-lookup charges are `ChargeLookup`'s, in
// submit order — this helper only owns the shared page leg.
void ChargePageBatch(const StoreCounters& sc, int j, uint64_t distinct,
                     uint64_t uncoalesced, uint64_t lookups,
                     const ClusterConfig* config, TaskContext* ctx,
                     OperatorTaskStats* stats, obs::ObsSession* obs) {
  const double t0 = ctx->sim_time();
  ctx->AddSimTime(config->PageBatchSeconds(distinct));
  Counters* counters = ctx->counters();
  counters->Increment(sc.batches);
  counters->Increment(sc.batched_lookups, static_cast<double>(lookups));
  if (distinct > 0) {
    counters->Increment(sc.page_reads, static_cast<double>(distinct));
  }
  if (uncoalesced > distinct) {
    counters->Increment(sc.coalesced,
                        static_cast<double>(uncoalesced - distinct));
  }
  if (stats != nullptr) stats->LookupPages(j, distinct, uncoalesced);
  if (obs != nullptr && distinct > 0) {
    obs->trace().TaskLocal(ctx)->Span(
        "page_read", "store", t0, ctx->sim_time() - t0,
        {{"pages", std::to_string(distinct)},
         {"coalesced", std::to_string(uncoalesced - distinct)},
         {"lookups", std::to_string(lookups)}});
  }
}

// A breaker bank for one lookup site, or null when the breaker is disabled
// or the accessor exposes no partition scheme to route around.
std::unique_ptr<BreakerBank> MakeBreakers(const ClusterConfig* config,
                                          const IndexAccessor* accessor) {
  if (config == nullptr || accessor == nullptr ||
      config->breaker_failure_threshold <= 0 ||
      accessor->partition_scheme() == nullptr) {
    return nullptr;
  }
  return std::make_unique<BreakerBank>(
      config->num_nodes, accessor->partition_scheme()->num_partitions());
}

}  // namespace

// ---------------------------------------------------------------- caches --

NodeCaches::NodeCaches(int num_nodes, size_t capacity) {
  if (num_nodes <= 0) num_nodes = 1;
  caches_.reserve(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    caches_.push_back(
        std::make_unique<LruCache<std::string, CachedResult>>(capacity));
  }
}

LruCache<std::string, CachedResult>& NodeCaches::ForNode(int node) {
  if (node < 0 || node >= static_cast<int>(caches_.size())) node = 0;
  return *caches_[node];
}

double NodeCaches::MissRatio() const {
  uint64_t probes = 0, misses = 0;
  for (const auto& c : caches_) {
    probes += c->probes();
    misses += c->misses();
  }
  return probes == 0 ? 1.0
                     : static_cast<double>(misses) /
                           static_cast<double>(probes);
}

// ------------------------------------------------------------ preprocess --

PreProcessStage::PreProcessStage(std::shared_ptr<IndexOperator> op,
                                 OperatorRuntime* runtime,
                                 std::string counter_prefix)
    : op_(std::move(op)),
      runtime_(runtime),
      counter_prefix_(std::move(counter_prefix)),
      pre_inputs_(counter_prefix_ + ".pre.inputs") {}

std::string PreProcessStage::name() const {
  return counter_prefix_ + ".pre";
}

void PreProcessStage::BeginTask(TaskContext* ctx) {
  // Register this task's collector up front so its merge runs even for
  // tasks that see no records.
  if (runtime_ != nullptr) runtime_->TaskLocal(ctx);
}

void PreProcessStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  const uint64_t input_bytes = record.size_bytes();
  const size_t m = static_cast<size_t>(op_->num_indices());
  // A record arriving with an attachment (a prior pipeline's in-flight
  // state) keeps it, copy-on-write, saved key included; any other record
  // gets one from the task's free list. Either way every key and result
  // list is emptied but keeps its capacity.
  std::shared_ptr<RecordAttachment> attachment;
  if (record.attachment) {
    attachment = MutableAttachment(&record);
  } else {
    attachment = ctx->TakeAttachment();
    attachment->saved_key.clear();
    attachment->has_saved_key = false;
  }
  attachment->keys.resize(m);
  for (auto& list : attachment->keys) list.clear();
  op_->PreProcess(&record, &attachment->keys);
  attachment->results.resize(m);
  for (size_t j = 0; j < m; ++j) {
    auto& results = attachment->results[j];
    results.resize(attachment->keys[j].size());
    for (CachedResult& slot : results) slot.clear();
  }
  record.attachment = std::move(attachment);

  if (runtime_ != nullptr) {
    runtime_->TaskLocal(ctx)->PreRecord(input_bytes, record.size_bytes(),
                                        record.attachment->keys);
  }
  ctx->counters()->Increment(pre_inputs_);
  out->Emit(std::move(record));
}

// ----------------------------------------------------------- lookup site --

LookupSite::LookupSite(const IndexOperator& op, int index,
                       const std::string& base, const ClusterConfig* config,
                       const LookupFailover* failover,
                       obs::ObsSession* session,
                       const std::string& latency_metric)
    : index(index),
      accessor(op.accessors()[index].get()),
      batched(dynamic_cast<const BatchedLookupIndex*>(accessor)),
      config(config),
      failover(failover),
      obs(session),
      lookups(base + ".lookups"),
      lookup_errors(base + ".lookup_errors"),
      lookup_failovers(base + ".lookup_failovers"),
      resilience(base),
      breakers(failover != nullptr ? MakeBreakers(config, accessor)
                                   : nullptr) {
  if (session != nullptr) {
    latency_hist = session->metrics().Histogram(base + latency_metric);
    injected_hist = session->metrics().Histogram(base +
                                                 ".latency_injected_sec");
  }
}

// --------------------------------------------------------- inline lookup --

InlineLookupStage::InlineLookupStage(std::shared_ptr<IndexOperator> op,
                                     std::vector<InlineIndexTask> tasks,
                                     OperatorRuntime* runtime,
                                     const ClusterConfig* config,
                                     size_t cache_capacity,
                                     std::string counter_prefix,
                                     const LookupFailover* failover,
                                     obs::ObsSession* session)
    : op_(std::move(op)),
      tasks_(std::move(tasks)),
      runtime_(runtime),
      config_(config),
      obs_(session),
      counter_prefix_(std::move(counter_prefix)) {
  caches_.resize(tasks_.size());
  sites_.reserve(tasks_.size());
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].use_cache) {
      caches_[t] =
          std::make_unique<NodeCaches>(config_->num_nodes, cache_capacity);
    }
    const std::string base =
        counter_prefix_ + ".idx" + std::to_string(tasks_[t].index);
    sites_.emplace_back(*op_, tasks_[t].index, base, config_, failover, obs_,
                        ".lookup_latency_sec");
    cache_hits_.emplace_back(base + ".cache_hits");
    if (sites_.back().batched != nullptr) any_batched_ = true;
    if (obs_ != nullptr) {
      std::vector<int> hits, misses;
      if (tasks_[t].use_cache) {
        for (int n = 0; n < config_->num_nodes; ++n) {
          const std::string node = base + ".cache.node" + std::to_string(n);
          hits.push_back(obs_->metrics().Gauge(node + ".hits"));
          misses.push_back(obs_->metrics().Gauge(node + ".misses"));
        }
      }
      cache_hit_gauges_.push_back(std::move(hits));
      cache_miss_gauges_.push_back(std::move(misses));
    }
  }
}

std::string InlineLookupStage::name() const {
  return counter_prefix_ + ".lookup";
}

// Per-task state of a stage with store-backed slots. Records whose keys hit
// such a slot are buffered until a flush resolves their lookups; the flush
// then emits every buffered record in arrival order, and a record with
// nothing pending waits behind them, so the emitted sequence is the same
// whether a lookup resolved at once or at a flush. Keyed by `&tasks_` in
// the TaskContext (distinct from every other task-state owner of this
// stage).
struct InlineLookupStage::BatchState {
  // One store-backed task slot's outstanding batch (parallel to tasks_;
  // other slots never populate theirs).
  struct SlotBatch {
    std::unique_ptr<BatchedLookupHandle> handle;
    // Keys in ticket (= submit) order for the current flush.
    std::vector<std::string> submitted;
    // Ticket of submitted[0]; tickets grow monotonically across flushes.
    uint64_t ticket_base = 0;
    // Cached slots only: keys submitted but not yet Put() into the cache.
    // A probe of such a key counts as a hit (had the earlier miss resolved
    // at once, its Put would precede the probe) and rides the same ticket.
    std::unordered_map<std::string, uint64_t> pending_keys;
  };
  // One buffered key of a buffered record: slot t, position in the record's
  // key list, and the ticket whose values it takes at flush.
  struct Ref {
    size_t t = 0;
    size_t key_index = 0;
    uint64_t ticket = 0;
  };
  struct PendingRecord {
    Record record;
    std::vector<Ref> refs;
  };

  std::vector<SlotBatch> slots;
  std::vector<PendingRecord> buffered;
  size_t total_pending = 0;
};

InlineLookupStage::BatchState* InlineLookupStage::BatchFor(TaskContext* ctx) {
  auto* existing = static_cast<BatchState*>(ctx->FindTaskState(&tasks_));
  if (existing != nullptr) return existing;
  auto state = std::make_shared<BatchState>();
  state->slots.resize(tasks_.size());
  BatchState* raw = state.get();
  ctx->AddTaskState(&tasks_, std::move(state));
  return raw;
}

void InlineLookupStage::Process(Record record, TaskContext* ctx,
                                Emitter* out) {
  BatchState* bs = any_batched_ ? BatchFor(ctx) : nullptr;
  if (!record.attachment) {
    // Nothing to look up, but it may not overtake buffered records.
    if (bs != nullptr && !bs->buffered.empty()) {
      bs->buffered.push_back({std::move(record), {}});
    } else {
      out->Emit(std::move(record));
    }
    return;
  }
  OperatorTaskStats* stats =
      runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr;
  obs::TaskTrace* tt =
      obs_ != nullptr ? obs_->trace().TaskLocal(ctx) : nullptr;
  obs::TaskMetrics* tm =
      obs_ != nullptr ? obs_->metrics().TaskLocal(ctx) : nullptr;
  const double batch_t0 = ctx->sim_time();
  size_t batch_keys = 0;
  auto attachment = MutableAttachment(&record);
  BatchState::PendingRecord pr;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const LookupSite& site = sites_[t];
    const int j = site.index;
    if (j < 0 || j >= static_cast<int>(attachment->keys.size())) continue;
    auto& keys = attachment->keys[j];
    auto& results = attachment->results[j];
    results.resize(keys.size());
    // This slot's cache for the node the task runs on (if caching). Safe as
    // a member: a node's tasks are serialized on one strand.
    LruCache<std::string, CachedResult>* cache =
        caches_[t] ? &caches_[t]->ForNode(ctx->node_id()) : nullptr;
    BatchState::SlotBatch* sb =
        site.batched != nullptr ? &bs->slots[t] : nullptr;
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& ik = keys[i];
      const double lk_t0 = ctx->sim_time();
      ++batch_keys;
      if (cache != nullptr) {
        ctx->AddSimTime(config_->cache_probe_sec);
        bool hit = cache->Get(ik, &results[i]);
        if (!hit && sb != nullptr) {
          // A key still pending in this slot's batch is a hit as well (had
          // its miss resolved at once, the Put would precede this probe):
          // it rides the pending ticket.
          auto it = sb->pending_keys.find(ik);
          if (it != sb->pending_keys.end()) {
            pr.refs.push_back({t, i, it->second});
            hit = true;
          }
        }
        if (hit) {
          if (stats != nullptr) stats->CacheProbe(j, /*miss=*/false);
          ctx->counters()->Increment(cache_hits_[t]);
          if (tm != nullptr) {
            tm->Observe(site.latency_hist, ctx->sim_time() - lk_t0);
          }
          continue;
        }
        if (stats != nullptr) stats->CacheProbe(j, /*miss=*/true);
      } else if (stats != nullptr) {
        // No real cache: feed the shadow cache so R can be estimated for
        // re-optimization (paper §4.2).
        stats->ShadowProbe(j, ctx->node_id(), ik);
      }
      if (sb != nullptr) {
        if (!sb->handle) sb->handle = site.batched->NewBatch();
        const uint64_t ticket = sb->handle->Submit(ik);
        sb->submitted.push_back(ik);
        if (cache != nullptr) sb->pending_keys.emplace(ik, ticket);
        pr.refs.push_back({t, i, ticket});
        ++bs->total_pending;
        continue;
      }
      LookupNow(site, ik, /*local=*/false, lk_t0, ctx, stats, &results[i]);
      if (cache != nullptr) cache->Put(ik, results[i]);
    }
  }
  record.attachment = std::move(attachment);
  if (tt != nullptr && batch_keys > 0) {
    tt->Span("lookup_batch", "lookup", batch_t0, ctx->sim_time() - batch_t0,
             {{"keys", std::to_string(batch_keys)}});
  }
  if (bs == nullptr || (pr.refs.empty() && bs->buffered.empty())) {
    out->Emit(std::move(record));
    return;
  }
  pr.record = std::move(record);
  bs->buffered.push_back(std::move(pr));
  if (bs->total_pending >= static_cast<size_t>(config_->store_batch_depth)) {
    FlushBatch(bs, ctx, out, stats);
  }
}

void InlineLookupStage::FlushBatch(BatchState* bs, TaskContext* ctx,
                                   Emitter* out, OperatorTaskStats* stats) {
  // Resolved values per slot, indexed by (ticket - pre-flush ticket_base).
  std::vector<std::vector<CachedResult>> resolved(tasks_.size());
  std::vector<uint64_t> base(tasks_.size(), 0);
  for (size_t t = 0; t < tasks_.size(); ++t) {
    BatchState::SlotBatch& sb = bs->slots[t];
    base[t] = sb.ticket_base;
    const size_t n = sb.submitted.size();
    if (n == 0) continue;
    BatchedLookupOutcome outcome = sb.handle->Flush();
    const auto by_ticket = ByTicket(&outcome, sb.ticket_base, n);
    const LookupSite& site = sites_[t];
    LruCache<std::string, CachedResult>* cache =
        caches_[t] ? &caches_[t]->ForNode(ctx->node_id()) : nullptr;
    resolved[t].resize(n);
    // Per-lookup charges replay in submit order.
    for (size_t i = 0; i < n; ++i) {
      const std::string& ik = sb.submitted[i];
      const double lk_t0 = ctx->sim_time();
      CachedResult* values = &resolved[t][i];
      const bool error = TakeCompletion(by_ticket[i], values);
      ChargeLookup(site, ik, error, /*local=*/false, lk_t0, values, ctx,
                   stats);
      if (cache != nullptr) cache->Put(ik, *values);
    }
    ChargePageBatch(store_counters_, site.index, outcome.distinct_pages,
                    outcome.uncoalesced_pages, n, config_, ctx, stats, obs_);
    sb.ticket_base += n;
    sb.submitted.clear();
    sb.pending_keys.clear();
  }
  // Emit the buffered records in arrival order, results attached.
  for (auto& pr : bs->buffered) {
    if (!pr.refs.empty()) {
      auto attachment = MutableAttachment(&pr.record);
      for (const BatchState::Ref& ref : pr.refs) {
        const int j = tasks_[ref.t].index;
        auto& results = attachment->results[j];
        const uint64_t i = ref.ticket - base[ref.t];
        if (ref.key_index < results.size() && i < resolved[ref.t].size()) {
          results[ref.key_index] = resolved[ref.t][i];
        }
      }
      pr.record.attachment = std::move(attachment);
    }
    out->Emit(std::move(pr.record));
  }
  bs->buffered.clear();
  bs->total_pending = 0;
}

void InlineLookupStage::EndTask(TaskContext* ctx, Emitter* out) {
  if (any_batched_) {
    // Drain the tail batch before the obs snapshot so its page reads and
    // cache puts are part of this task's record.
    auto* bs = static_cast<BatchState*>(ctx->FindTaskState(&tasks_));
    if (bs != nullptr) {
      if (!bs->buffered.empty() || bs->total_pending > 0) {
        FlushBatch(bs, ctx, out,
                   runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
      }
      // The handles and their page buffers die with the task; the task
      // state itself lives on until the phase merges its bags.
      for (BatchState::SlotBatch& sb : bs->slots) {
        sb.handle.reset();
        sb.ticket_base = 0;
      }
    }
  }
  // Cache hit/miss snapshot at end of task: the node cache is shared by the
  // node's (serially executed) tasks, so the ratio is the node's cumulative
  // state at this point of the serial order — deterministic at any thread
  // count.
  if (obs_ == nullptr) return;
  obs::TaskTrace* tt = obs_->trace().TaskLocal(ctx);
  obs::TaskMetrics* tm = obs_->metrics().TaskLocal(ctx);
  const int node = ctx->node_id();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (!caches_[t]) continue;
    const auto& cache = caches_[t]->ForNode(node);
    if (cache.probes() == 0) continue;
    const double hit_ratio = 1.0 - static_cast<double>(cache.misses()) /
                                       static_cast<double>(cache.probes());
    tt->Instant("cache_snapshot", "cache", ctx->sim_time(),
                {{"index", std::to_string(tasks_[t].index)},
                 {"hit_ratio", RatioStr(hit_ratio)},
                 {"probes", std::to_string(cache.probes())}});
    // Per-node gauge export of the shared LRU's cumulative hit/miss state.
    // Gauge semantics (last write in task-index absorb order) make the
    // surviving value the node's end-of-job totals, bit-identical at any
    // thread count.
    if (t < cache_hit_gauges_.size() &&
        node < static_cast<int>(cache_hit_gauges_[t].size())) {
      tm->Set(cache_hit_gauges_[t][node],
              static_cast<double>(cache.probes() - cache.misses()));
      tm->Set(cache_miss_gauges_[t][node],
              static_cast<double>(cache.misses()));
    }
  }
}

// ----------------------------------------------------------- postprocess --

PostProcessStage::PostProcessStage(std::shared_ptr<IndexOperator> op,
                                   OperatorRuntime* runtime,
                                   std::string counter_prefix)
    : op_(std::move(op)),
      runtime_(runtime),
      counter_prefix_(std::move(counter_prefix)),
      no_results_(op_->num_indices()) {}

std::string PostProcessStage::name() const {
  return counter_prefix_ + ".post";
}

void PostProcessStage::BeginTask(TaskContext* ctx) {
  if (runtime_ != nullptr) runtime_->TaskLocal(ctx);
}

namespace {

// Wraps the downstream emitter to meter postProcess output sizes into the
// current task's collector.
class MeteringEmitter : public Emitter {
 public:
  MeteringEmitter(Emitter* out, OperatorTaskStats* stats)
      : out_(out), stats_(stats) {}

  void Emit(Record record) override {
    if (stats_ != nullptr) stats_->PostRecord(record.size_bytes());
    out_->Emit(std::move(record));
  }

 private:
  Emitter* out_;
  OperatorTaskStats* stats_;
};

}  // namespace

void PostProcessStage::Process(Record record, TaskContext* ctx,
                               Emitter* out) {
  // The operator reads the results in place; the record it sees has no
  // attachment, so nothing it emits carries one on.
  std::shared_ptr<const RecordAttachment> attachment =
      std::move(record.attachment);
  if (attachment != nullptr && attachment->has_saved_key) {
    // Defensive: a record that skipped the grouped lookup still carries
    // its original key.
    record.key = attachment->saved_key;
  }
  MeteringEmitter metering(
      out, runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
  op_->PostProcess(record,
                   attachment != nullptr ? attachment->results : no_results_,
                   &metering);
  ctx->RecycleAttachment(std::move(attachment));
}

// ------------------------------------------------------------ shuffle key --

ShuffleKeyStage::ShuffleKeyStage(std::shared_ptr<IndexOperator> op, int index,
                                 std::string counter_prefix)
    : op_(std::move(op)),
      index_(index),
      counter_prefix_(std::move(counter_prefix)),
      shuffle_skipped_(counter_prefix_ + ".shuffle_skipped") {}

std::string ShuffleKeyStage::name() const {
  return counter_prefix_ + ".shufkey" + std::to_string(index_);
}

void ShuffleKeyStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  if (!record.attachment ||
      index_ >= static_cast<int>(record.attachment->keys.size()) ||
      record.attachment->keys[index_].size() != 1) {
    ctx->counters()->Increment(shuffle_skipped_);
    out->Emit(std::move(record));
    return;
  }
  auto attachment = MutableAttachment(&record);
  attachment->saved_key = record.key;
  attachment->has_saved_key = true;
  record.key = attachment->keys[index_][0];
  record.attachment = std::move(attachment);
  out->Emit(std::move(record));
}

// ----------------------------------------------------------- group reduce --

void GroupReducer::Reduce(const std::string& key, std::vector<Record> values,
                          TaskContext* ctx, Emitter* out) {
  (void)key;
  (void)ctx;
  for (auto& v : values) out->Emit(std::move(v));
}

// --------------------------------------------------------- grouped lookup --

GroupedLookupStage::GroupedLookupStage(std::shared_ptr<IndexOperator> op,
                                       int index, bool local,
                                       OperatorRuntime* runtime,
                                       const ClusterConfig* config,
                                       std::string counter_prefix,
                                       const LookupFailover* failover,
                                       obs::ObsSession* session)
    : op_(std::move(op)),
      index_(index),
      local_(local),
      runtime_(runtime),
      config_(config),
      obs_(session),
      counter_prefix_(std::move(counter_prefix)),
      site_(*op_, index_, counter_prefix_ + ".idx" + std::to_string(index_),
            config_, failover, obs_, ".grouped_lookup_latency_sec"),
      lookup_reuses_(counter_prefix_ + ".idx" + std::to_string(index_) +
                     ".lookup_reuses") {}

std::string GroupedLookupStage::name() const {
  return counter_prefix_ + ".grouped_lookup" + std::to_string(index_);
}

// Per-task state. `memo_*` is the last resolved grouped key: the rest of its
// run reuses the result, also across a flush boundary. With a store-backed
// accessor, `run_*` is a grouped key submitted to the current batch but not
// yet flushed (later records of the same run ride its ticket), and records
// wait in `buffered` until the flush that resolves them — a record may not
// overtake them even when its own result is at hand. Keyed by `&index_`.
struct GroupedLookupStage::BatchState {
  struct PendingRecord {
    Record record;
    bool grouped = false;           // Arrived via the shuffle: one result.
    std::vector<uint64_t> tickets;  // grouped: one; pass-through: per key.
  };
  struct Submitted {
    std::string key;
    bool grouped = false;  // Charges local in index-locality mode.
  };

  uint64_t Submit(const BatchedLookupIndex* index, const std::string& key,
                  bool grouped) {
    if (!handle) handle = index->NewBatch();
    submitted.push_back({key, grouped});
    return handle->Submit(key);
  }

  std::unique_ptr<BatchedLookupHandle> handle;
  std::vector<PendingRecord> buffered;
  std::vector<Submitted> submitted;  // Ticket order for the current flush.
  uint64_t ticket_base = 0;
  bool run_pending = false;
  std::string run_key;
  uint64_t run_ticket = 0;
  bool memo_valid = false;
  std::string memo_key;
  CachedResult memo_result;
};

GroupedLookupStage::BatchState* GroupedLookupStage::BatchFor(TaskContext* ctx) {
  auto* existing = static_cast<BatchState*>(ctx->FindTaskState(&index_));
  if (existing != nullptr) return existing;
  auto state = std::make_shared<BatchState>();
  BatchState* raw = state.get();
  ctx->AddTaskState(&index_, std::move(state));
  return raw;
}

void GroupedLookupStage::TraceLookup(TaskContext* ctx, double t0,
                                     bool local) const {
  if (obs_ == nullptr) return;
  obs_->trace().TaskLocal(ctx)->Span(
      "grouped_lookup", "lookup", t0, ctx->sim_time() - t0,
      {{"index", std::to_string(index_)},
       {"mode", local ? "local" : "remote"}});
}

void GroupedLookupStage::Process(Record record, TaskContext* ctx,
                                 Emitter* out) {
  OperatorTaskStats* stats =
      runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr;
  BatchState* bs = BatchFor(ctx);
  BatchState::PendingRecord pr;
  if (!record.attachment || !record.attachment->has_saved_key) {
    // Record skipped the shuffle (it extracted zero or several keys for
    // this index). Resolve its lookups remotely so postProcess still sees
    // complete results, then pass it through.
    if (record.attachment &&
        index_ < static_cast<int>(record.attachment->keys.size()) &&
        !record.attachment->keys[index_].empty()) {
      auto attachment = MutableAttachment(&record);
      const auto& keys = attachment->keys[index_];
      auto& results = attachment->results[index_];
      results.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        if (site_.batched != nullptr) {
          pr.tickets.push_back(bs->Submit(site_.batched, keys[i], false));
        } else {
          LookupNow(site_, keys[i], /*local=*/false, ctx->sim_time(), ctx,
                    stats, &results[i]);
        }
      }
      record.attachment = std::move(attachment);
    }
  } else {
    auto attachment = MutableAttachment(&record);
    const std::string ik = std::move(record.key);
    record.key = std::move(attachment->saved_key);
    attachment->saved_key.clear();
    attachment->has_saved_key = false;
    if (bs->run_pending && bs->run_key == ik) {
      // Same grouped run as an in-flight submit: ride its ticket.
      ctx->counters()->Increment(lookup_reuses_);
      pr.grouped = true;
      pr.tickets.push_back(bs->run_ticket);
    } else if (!bs->run_pending && bs->memo_valid && bs->memo_key == ik) {
      ctx->counters()->Increment(lookup_reuses_);
    } else if (site_.batched != nullptr) {
      bs->run_pending = true;
      bs->run_key = ik;
      bs->run_ticket = bs->Submit(site_.batched, ik, true);
      pr.grouped = true;
      pr.tickets.push_back(bs->run_ticket);
    } else {
      const double lk_t0 = ctx->sim_time();
      LookupNow(site_, ik, local_, lk_t0, ctx, stats, &bs->memo_result);
      TraceLookup(ctx, lk_t0, local_);
      bs->memo_valid = true;
      bs->memo_key = ik;
    }
    if (pr.tickets.empty() &&
        index_ < static_cast<int>(attachment->results.size())) {
      attachment->results[index_].assign(1, bs->memo_result);
    }
    record.attachment = std::move(attachment);
  }
  if (pr.tickets.empty() && bs->buffered.empty()) {
    out->Emit(std::move(record));
    return;
  }
  pr.record = std::move(record);
  bs->buffered.push_back(std::move(pr));
  if (bs->handle &&
      bs->handle->pending() >=
          static_cast<size_t>(config_->store_batch_depth)) {
    FlushBatch(bs, ctx, out, stats);
  }
}

void GroupedLookupStage::FlushBatch(BatchState* bs, TaskContext* ctx,
                                    Emitter* out, OperatorTaskStats* stats) {
  const size_t n = bs->submitted.size();
  const uint64_t base = bs->ticket_base;
  std::vector<CachedResult> resolved(n);
  if (n > 0) {
    BatchedLookupOutcome outcome = bs->handle->Flush();
    const auto by_ticket = ByTicket(&outcome, base, n);
    // Per-lookup charges replay in submit order.
    for (size_t i = 0; i < n; ++i) {
      const BatchState::Submitted& sub = bs->submitted[i];
      const bool local = local_ && sub.grouped;
      const double lk_t0 = ctx->sim_time();
      CachedResult* values = &resolved[i];
      const bool error = TakeCompletion(by_ticket[i], values);
      ChargeLookup(site_, sub.key, error, local, lk_t0, values, ctx, stats);
      TraceLookup(ctx, lk_t0, local);
      if (sub.grouped) {
        bs->memo_valid = true;
        bs->memo_key = sub.key;
        bs->memo_result = *values;
      }
    }
    ChargePageBatch(store_counters_, index_, outcome.distinct_pages,
                    outcome.uncoalesced_pages, n, config_, ctx, stats, obs_);
  }
  // Emit the buffered records in arrival order, results attached.
  for (auto& pr : bs->buffered) {
    if (!pr.tickets.empty() &&
        index_ < static_cast<int>(pr.record.attachment->results.size())) {
      auto attachment = MutableAttachment(&pr.record);
      auto& results = attachment->results[index_];
      if (pr.grouped) {
        const uint64_t i = pr.tickets[0] - base;
        if (i < n) results.assign(1, resolved[i]);
      } else {
        for (size_t k = 0; k < pr.tickets.size() && k < results.size(); ++k) {
          const uint64_t i = pr.tickets[k] - base;
          if (i < n) results[k] = resolved[i];
        }
      }
      pr.record.attachment = std::move(attachment);
    }
    out->Emit(std::move(pr.record));
  }
  bs->buffered.clear();
  bs->submitted.clear();
  bs->ticket_base += n;
  bs->run_pending = false;
}

void GroupedLookupStage::EndTask(TaskContext* ctx, Emitter* out) {
  auto* bs = static_cast<BatchState*>(ctx->FindTaskState(&index_));
  if (bs == nullptr) return;
  if (!bs->buffered.empty() || !bs->submitted.empty()) {
    FlushBatch(bs, ctx, out,
               runtime_ != nullptr ? runtime_->TaskLocal(ctx) : nullptr);
  }
  // The handle and its page buffers die with the task; the task state
  // itself lives on until the phase merges its bags.
  bs->handle.reset();
  bs->ticket_base = 0;
}

// -------------------------------------------------------------- map meter --

MapMeterStage::MapMeterStage(std::vector<OperatorRuntime*> head_runtimes)
    : head_runtimes_(std::move(head_runtimes)) {}

void MapMeterStage::Process(Record record, TaskContext* ctx, Emitter* out) {
  const uint64_t bytes = record.size_bytes();
  for (OperatorRuntime* rt : head_runtimes_) {
    if (rt != nullptr) rt->TaskLocal(ctx)->MapOutput(bytes);
  }
  out->Emit(std::move(record));
}

}  // namespace efind
