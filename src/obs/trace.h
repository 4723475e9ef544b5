// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deterministic structured tracing on the simulated clock (DESIGN.md §8).
//
// Two feeding paths mirror the execution engine's two worlds:
//
//  - Orchestration events (`Span`/`Instant` on the recorder): emitted from
//    single-threaded control code — phase spans, plan switches, DFS
//    boundaries. Appended directly to the event stream.
//  - Task events (`TaskLocal(ctx)` -> `TaskTrace`): emitted from stages
//    while tasks execute, possibly concurrently on the worker pool. Each
//    task writes to its own private buffer with *task-relative* timestamps
//    (the task's stage-charged clock, `TaskContext::sim_time()`); the
//    engine's state-bag merge stages the buffers in ascending task-index
//    order, and the job runner rebases them onto the phase schedule once
//    task start times are known. The final event stream is therefore
//    bit-identical at every worker-thread count.
//
// Timestamps are simulated cluster seconds; the Chrome trace exporter
// converts to microseconds. `node` selects the per-node track
// (kClusterTrack = the whole-cluster orchestration track).

#ifndef EFIND_SRC_OBS_TRACE_H_
#define EFIND_SRC_OBS_TRACE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/stage.h"

namespace efind {
namespace obs {

/// One string key/value pair attached to an event (kept as strings so the
/// exporters never need type dispatch).
struct TraceArg {
  std::string key;
  std::string value;
};

/// Track id of orchestration events that belong to no single node.
inline constexpr int kClusterTrack = -1;

/// One span (duration > 0 or == 0) or instant event on the simulated
/// timeline.
struct TraceEvent {
  std::string name;
  std::string category;
  /// Absolute simulated seconds (task events are task-relative until the
  /// recorder rebases them onto the phase schedule).
  double start_sec = 0.0;
  double duration_sec = 0.0;
  bool instant = false;
  /// Node track; kClusterTrack for orchestration events.
  int node = kClusterTrack;
  /// Slot lane within the node track (task spans use the schedule slot).
  int lane = 0;
  /// Phase-global task index, -1 when not task-scoped.
  int task_index = -1;
  std::vector<TraceArg> args;
};

/// A task's private event buffer. Obtained via `TraceRecorder::TaskLocal`;
/// all timestamps are relative to the task's own stage-charged clock
/// (`TaskContext::sim_time()` at emission). Buffers are bounded: after
/// `kMaxEventsPerTask` events further emissions are counted but dropped
/// (deterministically — the cap depends only on the task's own stream), and
/// the job runner reports the drop as a `trace_truncated` instant.
class TaskTrace {
 public:
  TaskTrace(int task_index, int node) : task_index_(task_index), node_(node) {}

  void Span(std::string name, std::string category, double rel_start_sec,
            double duration_sec, std::vector<TraceArg> args = {});
  void Instant(std::string name, std::string category, double rel_ts_sec,
               std::vector<TraceArg> args = {});

  int task_index() const { return task_index_; }
  int node() const { return node_; }
  size_t dropped() const { return dropped_; }

  static constexpr size_t kMaxEventsPerTask = 192;

 private:
  friend class TraceRecorder;

  void Push(TraceEvent event);

  int task_index_;
  int node_;
  std::vector<TraceEvent> events_;
  size_t dropped_ = 0;
};

/// Collects the trace of one run. Not thread-safe by itself; the engine's
/// contract makes all mutations single-threaded: direct emissions happen
/// from orchestration code, and task buffers are staged by the state-bag
/// merges, which the engine runs serially in task-index order.
class TraceRecorder {
 public:
  /// This task's private buffer, created and registered in `ctx`'s state
  /// bag on first use. The bag's merge closure stages the buffer for the
  /// job runner to rebase (`TakeStaged`). Safe to call from worker threads:
  /// it only touches the per-task context.
  TaskTrace* TaskLocal(TaskContext* ctx);

  /// Orchestration span/instant at absolute simulated time.
  void Span(std::string name, std::string category, double start_sec,
            double duration_sec, int node = kClusterTrack, int lane = 0,
            std::vector<TraceArg> args = {});
  void Instant(std::string name, std::string category, double ts_sec,
               int node = kClusterTrack,
               std::vector<TraceArg> args = {});

  /// One task's staged buffer (absorbed from a `TaskTrace` in task-index
  /// order by the engine's bag merges).
  struct StagedTask {
    int task_index = -1;
    int node = 0;
    size_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  /// Moves out the staged per-task buffers accumulated since the last call
  /// (in absorb order == task-index order within a phase). The job runner
  /// calls this after computing the phase schedule, rebases each buffer by
  /// its task's scheduled start, and appends the events.
  std::vector<StagedTask> TakeStaged();

  /// Appends `events` rebased by `offset_sec` and pinned to `node`/`lane`.
  void AppendRebased(const StagedTask& task, double offset_sec, int lane);

  /// The running simulated clock: the start time of the phase currently
  /// being recorded. Advanced by the job runner (phase makespans) and the
  /// EFind pipeline (DFS boundary charges) so consecutive phases lay out
  /// sequentially, matching how simulated seconds accumulate.
  double clock() const { return clock_sec_; }
  void AdvanceClock(double seconds) { clock_sec_ += seconds; }

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t dropped_events() const { return dropped_; }

  void Clear();

 private:
  friend class TaskTrace;

  void AbsorbTask(const TaskTrace& task);

  std::vector<TraceEvent> events_;
  std::vector<StagedTask> staged_;
  double clock_sec_ = 0.0;
  size_t dropped_ = 0;
};

}  // namespace obs
}  // namespace efind

#endif  // EFIND_SRC_OBS_TRACE_H_
