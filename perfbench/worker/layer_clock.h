// Host-time accounting for the benchmark's traced runs.
//
// Two kinds of measurement, both recorded from the benchmark's own files
// around calls into the program's public interfaces:
//
//  - Coarse spans (set-up, CollectStatistics, PlanFromStats, RunWithPlan,
//    JobService::Run): one `Span` each, kept in memory on the
//    orchestration thread and written out when the run ends.
//  - Fine scopes around per-record and per-lookup calls (the shims in
//    shims.h): no span per call, only a call count and the scope's *self*
//    time — its duration minus the time of scopes nested inside it on the
//    same thread — so nested user code and engine code are never counted
//    twice. Totals are process-wide atomics and are safe at any thread
//    count.
#ifndef PERFBENCH_WORKER_LAYER_CLOCK_H_
#define PERFBENCH_WORKER_LAYER_CLOCK_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers timed by fine scopes.
enum class Layer : int {
  kKvLookup,     ///< IndexAccessor::Lookup on a KV index.
  kStoreLookup,  ///< BatchedLookupHandle Submit/Flush and NewBatch.
  kPre,          ///< IndexOperator::PreProcess (user code).
  kPost,         ///< IndexOperator::PostProcess (user code).
  kMapFn,        ///< The user's mapper stage (user code).
  kReduceFn,     ///< The user's Reducer (user code).
  /// Downstream work reached through an emitter handed to user code: the
  /// engine's stage chain, attributed to the engine, not to the caller.
  kEngineDownstream,
  kCount
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide self-time and call totals per layer.
class LayerTotals {
 public:
  static LayerTotals& Get() {
    static LayerTotals totals;
    return totals;
  }
  void Add(Layer layer, uint64_t self_ns, uint64_t calls) {
    const int i = static_cast<int>(layer);
    self_ns_[i].fetch_add(self_ns, std::memory_order_relaxed);
    calls_[i].fetch_add(calls, std::memory_order_relaxed);
  }
  double Seconds(Layer layer) const {
    return static_cast<double>(
               self_ns_[static_cast<int>(layer)].load(
                   std::memory_order_relaxed)) *
           1e-9;
  }
  uint64_t Calls(Layer layer) const {
    return calls_[static_cast<int>(layer)].load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kN = static_cast<int>(Layer::kCount);
  std::array<std::atomic<uint64_t>, kN> self_ns_{};
  std::array<std::atomic<uint64_t>, kN> calls_{};
};

/// Time of scopes nested in the innermost open scope on this thread.
inline thread_local uint64_t tls_child_ns = 0;

/// RAII fine scope: adds its self time and one call to `layer`.
class LayerScope {
 public:
  explicit LayerScope(Layer layer)
      : layer_(layer), saved_child_ns_(tls_child_ns), start_ns_(NowNs()) {
    tls_child_ns = 0;
  }
  ~LayerScope() {
    const uint64_t elapsed = NowNs() - start_ns_;
    const uint64_t nested = tls_child_ns;
    LayerTotals::Get().Add(layer_, elapsed > nested ? elapsed - nested : 0,
                           1);
    tls_child_ns = saved_child_ns_ + elapsed;
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Layer layer_;
  uint64_t saved_child_ns_;
  uint64_t start_ns_;
};

/// One coarse span, in nanoseconds since the recorder's origin.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span; -1 at top level.
};

/// Coarse spans of one run. Orchestration thread only.
class SpanRecorder {
 public:
  SpanRecorder() : origin_ns_(NowNs()) {}

  /// Opens a span and returns its index.
  int Open(const std::string& name) {
    spans_.push_back({name, NowNs() - origin_ns_, 0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int index) {
    spans_[index].end_ns = NowNs() - origin_ns_;
    open_.pop_back();
  }
  /// Summed duration of every span called `name`, in seconds.
  double Seconds(const std::string& name) const {
    uint64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }
  /// Summed duration of the top-level spans, in seconds.
  double TopLevelSeconds() const {
    uint64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII coarse span; a null recorder makes it a no-op (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_LAYER_CLOCK_H_
