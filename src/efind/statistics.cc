#include "efind/statistics.h"

#include <algorithm>

#include "common/hash.h"

namespace efind {

double OperatorStats::SidxAfter(const std::vector<int>& accessed) const {
  double s = spre;
  for (int j : accessed) {
    if (j >= 0 && j < static_cast<int>(index.size())) {
      s += index[j].nik * index[j].siv;
    }
  }
  return s;
}

// ------------------------------------------------------ per-task collector --

OperatorTaskStats::OperatorTaskStats(OperatorRuntime* runtime)
    : runtime_(runtime), index_(runtime->num_indices_) {}

void OperatorTaskStats::PreRecord(
    uint64_t input_bytes, uint64_t pre_output_bytes,
    const std::vector<std::vector<std::string>>& keys) {
  ++inputs_;
  input_bytes_ += input_bytes;
  pre_bytes_ += pre_output_bytes;
  const int n = static_cast<int>(index_.size());
  for (int j = 0; j < n && j < static_cast<int>(keys.size()); ++j) {
    PerIndexTask& pi = index_[j];
    pi.keys += keys[j].size();
    if (keys[j].size() != 1) pi.multi_key_seen = true;
    for (const auto& k : keys[j]) {
      pi.key_bytes += k.size();
      const uint64_t hash = Hash64(k);
      pi.sketch.AddHash(hash);
      pi.skew.Observe(hash);
    }
  }
}

void OperatorTaskStats::LookupPerformed(int j, uint64_t key_bytes,
                                        uint64_t result_bytes,
                                        double service_sec) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  PerIndexTask& pi = index_[j];
  ++pi.lookups;
  (void)key_bytes;  // Key bytes are tracked at extraction time (PreRecord).
  pi.lookup_result_bytes += result_bytes;
  pi.service_time += service_sec;
}

void OperatorTaskStats::LookupAvailability(int j, double excess_sec,
                                           bool primary_down,
                                           bool failed_over) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  PerIndexTask& pi = index_[j];
  pi.avail_excess_sec += excess_sec;
  if (primary_down) ++pi.down_lookups;
  if (failed_over) ++pi.failovers;
}

void OperatorTaskStats::LookupResilience(int j, int hedges, bool hedge_won,
                                         int flaky_errors,
                                         int corrupt_detected,
                                         bool breaker_short_circuit) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  PerIndexTask& pi = index_[j];
  if (hedges > 0) ++pi.hedges;
  if (hedge_won) ++pi.hedge_wins;
  if (flaky_errors > 0) ++pi.flaky_lookups;
  if (corrupt_detected > 0) ++pi.corrupt_lookups;
  if (breaker_short_circuit) ++pi.breaker_short_circuits;
}

void OperatorTaskStats::LookupPages(int j, uint64_t distinct_pages,
                                    uint64_t uncoalesced_pages) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  index_[j].page_reads += distinct_pages;
  index_[j].uncoalesced_page_reads += uncoalesced_pages;
}

void OperatorTaskStats::CacheProbe(int j, bool miss) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  ++index_[j].cache_probes;
  if (miss) ++index_[j].cache_misses;
}

void OperatorTaskStats::ShadowProbe(int j, int node, const std::string& key) {
  if (j < 0 || j >= static_cast<int>(index_.size())) return;
  const bool hit = runtime_->ShadowCacheTouch(j, node, key);
  CacheProbe(j, /*miss=*/!hit);
}

void OperatorTaskStats::PostRecord(uint64_t output_bytes) {
  ++post_records_;
  post_bytes_ += output_bytes;
}

void OperatorTaskStats::MapOutput(uint64_t bytes) {
  map_output_bytes_ += bytes;
}

// ---------------------------------------------------------------- runtime --

OperatorRuntime::OperatorRuntime(int num_indices, int num_nodes,
                                 size_t cache_capacity,
                                 double hot_key_threshold, int salt_fanout)
    : num_indices_(num_indices > 0 ? num_indices : 0),
      num_nodes_(num_nodes > 0 ? num_nodes : 1),
      cache_capacity_(cache_capacity),
      hot_key_threshold_(hot_key_threshold),
      salt_fanout_(salt_fanout),
      per_index_(num_indices_) {
  shadow_caches_.resize(static_cast<size_t>(num_nodes_) * num_indices_);
}

void OperatorRuntime::Reset() {
  *this = OperatorRuntime(num_indices_, num_nodes_, cache_capacity_,
                          hot_key_threshold_, salt_fanout_);
}

OperatorTaskStats* OperatorRuntime::TaskLocal(TaskContext* ctx) {
  auto* existing = static_cast<OperatorTaskStats*>(ctx->FindTaskState(this));
  if (existing != nullptr) return existing;
  auto state = std::make_shared<OperatorTaskStats>(this);
  OperatorTaskStats* raw = state.get();
  ctx->AddTaskState(this, std::move(state),
                    [this, raw] { AbsorbTask(*raw); });
  return raw;
}

void OperatorRuntime::AbsorbTask(const OperatorTaskStats& task) {
  total_inputs_ += task.inputs_;
  total_input_bytes_ += task.input_bytes_;
  total_pre_bytes_ += task.pre_bytes_;
  for (int j = 0;
       j < num_indices_ && j < static_cast<int>(task.index_.size()); ++j) {
    PerIndex& pi = per_index_[j];
    const OperatorTaskStats::PerIndexTask& ti = task.index_[j];
    pi.keys += ti.keys;
    pi.key_bytes += ti.key_bytes;
    pi.sketch.Merge(ti.sketch);
    pi.skew.Merge(ti.skew);
    if (ti.multi_key_seen) pi.multi_key_seen = true;
    pi.lookups += ti.lookups;
    pi.lookup_result_bytes += ti.lookup_result_bytes;
    pi.service_time += ti.service_time;
    pi.cache_probes += ti.cache_probes;
    pi.cache_misses += ti.cache_misses;
    pi.avail_excess_sec += ti.avail_excess_sec;
    pi.down_lookups += ti.down_lookups;
    pi.failovers += ti.failovers;
    pi.hedges += ti.hedges;
    pi.hedge_wins += ti.hedge_wins;
    pi.flaky_lookups += ti.flaky_lookups;
    pi.corrupt_lookups += ti.corrupt_lookups;
    pi.breaker_short_circuits += ti.breaker_short_circuits;
    pi.page_reads += ti.page_reads;
    pi.uncoalesced_page_reads += ti.uncoalesced_page_reads;
  }
  if (task.inputs_ > 0) {
    ++pre_tasks_;
    const double n = static_cast<double>(task.inputs_);
    inputs_samples_.Add(n);
    s1_samples_.Add(static_cast<double>(task.input_bytes_) / n);
    spre_samples_.Add(static_cast<double>(task.pre_bytes_) / n);
    for (int j = 0; j < num_indices_; ++j) {
      const uint64_t task_keys =
          j < static_cast<int>(task.index_.size()) ? task.index_[j].keys : 0;
      per_index_[j].nik_samples.Add(static_cast<double>(task_keys) / n);
    }
  }
  total_post_records_ += task.post_records_;
  total_post_bytes_ += task.post_bytes_;
  if (task.post_records_ > 0) {
    ++post_tasks_;
    spost_samples_.Add(static_cast<double>(task.post_bytes_) /
                       static_cast<double>(task.post_records_));
  }
  map_output_bytes_ += task.map_output_bytes_;
}

bool OperatorRuntime::ShadowCacheTouch(int j, int node,
                                       const std::string& key) {
  if (node < 0 || node >= num_nodes_) node = 0;
  auto& cache = shadow_caches_[static_cast<size_t>(node) * num_indices_ + j];
  if (!cache) {
    cache = std::make_unique<LruCache<std::string, char>>(cache_capacity_);
  }
  char unused = 0;
  const bool hit = cache->Get(key, &unused);
  if (!hit) cache->Put(key, 0);
  return hit;
}

OperatorStats OperatorRuntime::Compute(int num_nodes,
                                       double extrapolation) const {
  OperatorStats stats;
  if (num_nodes <= 0) num_nodes = 1;
  if (extrapolation < 1.0) extrapolation = 1.0;
  if (total_inputs_ == 0) {
    // No preProcess samples yet: still surface the lookup-side statistics
    // (siv, tj, miss ratio) but leave the stats invalid for planning.
    stats.index.resize(num_indices_);
    for (int j = 0; j < num_indices_; ++j) {
      const PerIndex& pi = per_index_[j];
      IndexStats& is = stats.index[j];
      is.siv = pi.lookups > 0
                   ? static_cast<double>(pi.lookup_result_bytes) /
                         static_cast<double>(pi.lookups)
                   : 0.0;
      is.tj = pi.lookups > 0
                  ? pi.service_time / static_cast<double>(pi.lookups)
                  : 0.0;
      is.miss_ratio = pi.cache_probes > 0
                          ? static_cast<double>(pi.cache_misses) /
                                static_cast<double>(pi.cache_probes)
                          : 1.0;
      if (pi.lookups > 0) {
        const double lookups = static_cast<double>(pi.lookups);
        is.avail_excess = pi.avail_excess_sec / lookups;
        is.down_share = static_cast<double>(pi.down_lookups) / lookups;
        is.failover_share = static_cast<double>(pi.failovers) / lookups;
        is.hedge_share = static_cast<double>(pi.hedges) / lookups;
        is.hedge_win_share = static_cast<double>(pi.hedge_wins) / lookups;
        is.flaky_share = static_cast<double>(pi.flaky_lookups) / lookups;
        is.corrupt_share = static_cast<double>(pi.corrupt_lookups) / lookups;
        is.breaker_share =
            static_cast<double>(pi.breaker_short_circuits) / lookups;
        is.pages_per_lookup =
            static_cast<double>(pi.uncoalesced_page_reads) / lookups;
      }
    }
    return stats;
  }

  const double inputs = static_cast<double>(total_inputs_);
  stats.n1 = inputs * extrapolation / num_nodes;
  stats.s1 = static_cast<double>(total_input_bytes_) / inputs;
  stats.spre = static_cast<double>(total_pre_bytes_) / inputs;
  stats.spost = total_post_records_ > 0
                    ? static_cast<double>(total_post_bytes_) /
                          static_cast<double>(total_post_records_)
                    : 0.0;
  stats.smap = static_cast<double>(map_output_bytes_) / inputs;
  stats.tasks_sampled = pre_tasks_;

  stats.index.resize(num_indices_);
  double max_cov = std::max(
      {inputs_samples_.coefficient_of_variation(),
       s1_samples_.coefficient_of_variation(),
       spre_samples_.coefficient_of_variation(),
       post_tasks_ >= 2 ? spost_samples_.coefficient_of_variation() : 0.0});
  for (int j = 0; j < num_indices_; ++j) {
    const PerIndex& pi = per_index_[j];
    IndexStats& is = stats.index[j];
    is.nik = static_cast<double>(pi.keys) / inputs;
    is.sik = pi.keys > 0 ? static_cast<double>(pi.key_bytes) /
                               static_cast<double>(pi.keys)
                         : 0.0;
    is.siv = pi.lookups > 0 ? static_cast<double>(pi.lookup_result_bytes) /
                                  static_cast<double>(pi.lookups)
                            : 0.0;
    is.tj = pi.lookups > 0
                ? pi.service_time / static_cast<double>(pi.lookups)
                : 0.0;
    const double distinct = pi.sketch.EstimateDistinct();
    // FM estimates the distinct count of the *sampled* keys; scale both the
    // total and distinct by the same extrapolation so Theta is unbiased
    // under uniform duplication. (Distinct counts do not extrapolate
    // linearly in general; treat Theta as the duplicate factor observed in
    // the sample, which is what re-optimization acts on.)
    is.theta = distinct > 0.5
                   ? std::max(1.0, static_cast<double>(pi.keys) / distinct)
                   : 1.0;
    is.miss_ratio = pi.cache_probes > 0
                        ? static_cast<double>(pi.cache_misses) /
                              static_cast<double>(pi.cache_probes)
                        : 1.0;
    is.repartitionable = !pi.multi_key_seen;
    is.max_key_share = pi.skew.MaxShare();
    is.salt_fanout = salt_fanout_;
    for (const auto& hk : pi.skew.HotKeys(hot_key_threshold_)) {
      is.hot_keys.push_back(hk.hash);
    }
    if (pi.lookups > 0) {
      const double lookups = static_cast<double>(pi.lookups);
      is.avail_excess = pi.avail_excess_sec / lookups;
      is.down_share = static_cast<double>(pi.down_lookups) / lookups;
      is.failover_share = static_cast<double>(pi.failovers) / lookups;
      is.hedge_share = static_cast<double>(pi.hedges) / lookups;
      is.hedge_win_share = static_cast<double>(pi.hedge_wins) / lookups;
      is.flaky_share = static_cast<double>(pi.flaky_lookups) / lookups;
      is.corrupt_share = static_cast<double>(pi.corrupt_lookups) / lookups;
      is.breaker_share =
          static_cast<double>(pi.breaker_short_circuits) / lookups;
      is.pages_per_lookup =
          static_cast<double>(pi.uncoalesced_page_reads) / lookups;
    }
    max_cov = std::max(max_cov, pi.nik_samples.coefficient_of_variation());
  }
  stats.max_cov = max_cov;
  stats.valid = true;
  return stats;
}

}  // namespace efind
