// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the parallel execution engine. This is a
// standalone binary (no gtest) compiled together with the engine sources
// and -fsanitize=thread by tests/CMakeLists.txt, so every engine access is
// instrumented regardless of how the main libraries were built. It drives a
// multi-strand map+reduce job with per-task state, counters, and stage sim
// time at 8 worker threads, twice, and checks the runs agree bit for bit.
// It then runs a re-partitioned three-job pipeline whose intermediate
// splits are handed to the next job by ownership, so every map task moves
// its records out and releases its split inside its own strand while record
// attachments — some shared across splits and with a retained copy of the
// first job's output — drop their references concurrently.
// TSan reports (data races) fail the test via its nonzero exit code.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job_runner.h"

namespace efind {
namespace {

// Charges time, counts per-task and per-record, and buffers records in the
// task-state registry — the shapes a race would hide in.
class ChurnStage : public RecordStage {
 public:
  std::string name() const override { return "churn"; }

  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)out;
    ctx->AddSimTime(1e-4);
    ctx->counters()->Increment("churn.records");
    Held(ctx)->push_back(std::move(record));
  }

  void EndTask(TaskContext* ctx, Emitter* out) override {
    std::vector<Record>* held = Held(ctx);
    ctx->counters()->Increment("churn.tasks");
    for (auto& r : *held) out->Emit(std::move(r));
    held->clear();
  }

 private:
  std::vector<Record>* Held(TaskContext* ctx) const {
    auto* existing =
        static_cast<std::vector<Record>*>(ctx->FindTaskState(this));
    if (existing != nullptr) return existing;
    auto held = std::make_shared<std::vector<Record>>();
    auto* raw = held.get();
    ctx->AddTaskState(this, std::move(held));
    return raw;
  }
};

class CountReducer : public Reducer {
 public:
  std::string name() const override { return "count"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    ctx->AddSimTime(1e-5);
    out->Emit(Record(key, std::to_string(values.size())));
  }
};

JobResult RunOnce(int threads) {
  ClusterConfig config;
  JobRunner runner(config);
  runner.set_num_threads(threads);

  JobConfig job;
  job.map_stages.push_back(std::make_shared<ChurnStage>());
  job.reducer = std::make_shared<CountReducer>();
  job.num_reduce_tasks = 24;

  std::vector<InputSplit> input(36);
  int v = 0;
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % config.num_nodes;
    for (int r = 0; r < 50; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 40), "v" + std::to_string(v)));
      ++v;
    }
  }
  return runner.Run(job, input);
}

// Starts an operator window: attaches the record's key as a lookup key.
// Every fourth record shares one attachment with records of other splits,
// so concurrent strands hold and drop references to the same object.
class AttachStage : public RecordStage {
 public:
  AttachStage() {
    auto shared = std::make_shared<RecordAttachment>();
    shared->keys = {{"shared"}};
    shared_ = std::move(shared);
  }
  std::string name() const override { return "attach"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    if (record.value.size() % 4 == 0) {
      record.attachment = shared_;
    } else {
      auto a = std::make_shared<RecordAttachment>();
      a->keys = {{record.key}};
      record.attachment = std::move(a);
    }
    out->Emit(std::move(record));
  }

 private:
  std::shared_ptr<const RecordAttachment> shared_;
};

// A grouped lookup: appends a result to the attachment copy-on-write (in
// place when the record holds the only reference, as it does once its
// split was handed over; copied when another split or a retained output
// still shares it) and re-keys the record for the next shuffle.
class LookupStage : public RecordStage {
 public:
  explicit LookupStage(std::string tag) : tag_(std::move(tag)) {}
  std::string name() const override { return "lookup"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    ctx->AddSimTime(2e-5);
    std::shared_ptr<RecordAttachment> a;
    if (record.attachment && record.attachment.use_count() == 1) {
      a = std::const_pointer_cast<RecordAttachment>(
          std::move(record.attachment));
    } else if (record.attachment) {
      a = std::make_shared<RecordAttachment>(*record.attachment);
      ctx->counters()->Increment("lookup.copies");
    } else {
      a = std::make_shared<RecordAttachment>();
    }
    a->results.push_back({{IndexValue(tag_ + record.key)}});
    record.key = record.value.substr(0, 3) + tag_;
    record.attachment = std::move(a);
    out->Emit(std::move(record));
  }

 private:
  std::string tag_;
};

// The re-partitioning shuffle's reducer: passes every record through,
// grouped by key.
class GroupReducer : public Reducer {
 public:
  std::string name() const override { return "group"; }
  void Reduce(const std::string& key, std::vector<Record> values,
              TaskContext* ctx, Emitter* out) override {
    (void)key;
    (void)ctx;
    for (auto& v : values) out->Emit(std::move(v));
  }
};

struct PipelineRun {
  JobResult last;
  double sim_seconds = 0.0;
  std::map<std::string, double> counters;
  /// Digest of the first job's output as retained before the hand-off,
  /// taken after the whole pipeline ran.
  std::string retained;
};

std::string Describe(const std::vector<InputSplit>& splits) {
  std::string s;
  for (const auto& split : splits) {
    s += std::to_string(split.node) + "|";
    for (const auto& r : split.records) {
      s += r.key + "=" + r.value;
      if (r.attachment) {
        for (const auto& ks : r.attachment->keys) {
          for (const auto& k : ks) s += "," + k;
        }
        s += "/" + std::to_string(r.attachment->results.size());
      }
      s += ";";
    }
  }
  return s;
}

PipelineRun RunPipeline(int threads) {
  ClusterConfig config;
  JobRunner runner(config);
  runner.set_num_threads(threads);

  std::vector<InputSplit> input(30);
  int v = 0;
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % config.num_nodes;
    for (int r = 0; r < 60; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 50), "v" + std::to_string(v)));
      ++v;
    }
  }

  JobConfig shuffle1;
  shuffle1.map_stages.push_back(std::make_shared<AttachStage>());
  shuffle1.reducer = std::make_shared<GroupReducer>();
  shuffle1.num_reduce_tasks = 24;
  JobConfig shuffle2;
  shuffle2.map_stages.push_back(std::make_shared<LookupStage>("a"));
  shuffle2.reducer = std::make_shared<GroupReducer>();
  shuffle2.num_reduce_tasks = 20;
  JobConfig final_job;
  final_job.map_stages.push_back(std::make_shared<LookupStage>("b"));

  PipelineRun run;
  JobResult first = runner.Run(shuffle1, input);
  // A published artifact: a copy sharing every attachment with the splits
  // the next job consumes.
  const std::vector<InputSplit> retained = first.outputs;
  JobResult second = runner.Run(shuffle2, std::move(first.outputs));
  run.last = runner.Run(final_job, std::move(second.outputs));
  run.sim_seconds = first.sim_seconds + second.sim_seconds +
                    run.last.sim_seconds;
  for (const JobResult* j : {&first, &second, &run.last}) {
    for (const auto& [name, value] : j->counters.values()) {
      run.counters[name] += value;
    }
  }
  run.retained = Describe(retained);
  return run;
}

}  // namespace
}  // namespace efind

int main() {
  const efind::JobResult serial = efind::RunOnce(1);
  const efind::JobResult parallel = efind::RunOnce(8);

  int failures = 0;
  if (serial.sim_seconds != parallel.sim_seconds) {
    std::fprintf(stderr, "sim_seconds mismatch: %.17g vs %.17g\n",
                 serial.sim_seconds, parallel.sim_seconds);
    ++failures;
  }
  if (serial.counters.values() != parallel.counters.values()) {
    std::fprintf(stderr, "counters mismatch\n");
    ++failures;
  }
  if (serial.outputs.size() != parallel.outputs.size()) {
    std::fprintf(stderr, "output split count mismatch\n");
    ++failures;
  } else {
    for (size_t i = 0; i < serial.outputs.size(); ++i) {
      if (serial.outputs[i].records != parallel.outputs[i].records) {
        std::fprintf(stderr, "output mismatch in split %zu\n", i);
        ++failures;
      }
    }
  }

  const efind::PipelineRun pipe_serial = efind::RunPipeline(1);
  const efind::PipelineRun pipe_parallel = efind::RunPipeline(8);
  if (pipe_serial.sim_seconds != pipe_parallel.sim_seconds ||
      pipe_serial.counters != pipe_parallel.counters) {
    std::fprintf(stderr, "pipeline sim_seconds/counters mismatch\n");
    ++failures;
  }
  if (efind::Describe(pipe_serial.last.outputs) !=
      efind::Describe(pipe_parallel.last.outputs)) {
    std::fprintf(stderr, "pipeline output mismatch\n");
    ++failures;
  }
  // The retained copy shares attachments with the consumed splits; the
  // copy-on-write lookups must have left it untouched (no results yet).
  if (pipe_serial.retained != pipe_parallel.retained ||
      pipe_serial.retained.find("/1;") != std::string::npos) {
    std::fprintf(stderr, "retained first-job output changed\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("engine_tsan_smoke: OK\n");
    return 0;
  }
  return 1;
}
