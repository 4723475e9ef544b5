// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// ThreadSanitizer smoke test of the failure-aware execution path: the
// shared `HostAvailability` + `LookupFailover` objects are read by every
// concurrently executing task, and the speculative scheduler transforms the
// resulting duration vectors. Compiled standalone with -fsanitize=thread
// together with the engine sources and src/efind/failover.cc (all other
// failover dependencies are header-only), so every access is instrumented.
// Runs a faulted multi-strand job at 1 and 8 worker threads and checks the
// results agree bit for bit; TSan reports fail via the nonzero exit code.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "efind/failover.h"
#include "mapreduce/job_runner.h"

namespace efind {
namespace {

/// Minimal consecutive-replica partition scheme (self-contained so the
/// smoke binary does not pull in the kvstore library).
class SmokeScheme : public PartitionScheme {
 public:
  SmokeScheme(int partitions, int nodes, int replicas)
      : partitions_(partitions), nodes_(nodes), replicas_(replicas) {}

  int num_partitions() const override { return partitions_; }
  int PartitionOf(std::string_view key) const override {
    uint64_t h = 1469598103934665603ULL;
    for (char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return static_cast<int>(h % static_cast<uint64_t>(partitions_));
  }
  int HostOfPartition(int partition) const override {
    return partition % nodes_;
  }
  bool NodeHostsPartition(int node, int partition) const override {
    const int primary = HostOfPartition(partition);
    for (int r = 0; r < replicas_; ++r) {
      if ((primary + r) % nodes_ == node) return true;
    }
    return false;
  }

 private:
  int partitions_;
  int nodes_;
  int replicas_;
};

/// Accessor stub: fixed service time, partition scheme as above; `Lookup`
/// echoes the key (the smoke cares about the time charges, not the data).
class SmokeAccessor : public IndexAccessor {
 public:
  explicit SmokeAccessor(const PartitionScheme* scheme) : scheme_(scheme) {}

  std::string name() const override { return "smoke"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    out->assign(1, IndexValue(ik, ik.size() + 8));
    return Status::OK();
  }
  double ServiceSeconds(uint64_t result_bytes) const override {
    return 1e-5 + 1e-9 * static_cast<double>(result_bytes);
  }
  double RemoteOverheadSeconds() const override { return 2e-6; }
  const PartitionScheme* partition_scheme() const override { return scheme_; }

 private:
  const PartitionScheme* scheme_;
};

/// Every record issues one remote and one "local" charged lookup through
/// the shared LookupFailover, from whatever strand the task runs on.
class FailoverStage : public RecordStage {
 public:
  FailoverStage(SmokeAccessor* accessor, const LookupFailover* failover)
      : accessor_(accessor), failover_(failover) {}

  std::string name() const override { return "failover_churn"; }

  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    std::vector<IndexValue> values;
    accessor_->Lookup(record.key, &values).ok();
    uint64_t result_bytes = 0;
    for (const auto& v : values) result_bytes += v.size_bytes();
    const double service = accessor_->ServiceSeconds(result_bytes);
    const LookupCharge remote = failover_->Remote(
        *accessor_, record.key, result_bytes, service, ctx->sim_time());
    ctx->AddSimTime(remote.seconds);
    const LookupCharge local =
        failover_->Local(*accessor_, record.key, result_bytes, service,
                         ctx->node_id(), ctx->sim_time());
    ctx->AddSimTime(local.seconds);
    ctx->counters()->Increment("smoke.lookups");
    if (remote.failed_over || local.failed_over) {
      ctx->counters()->Increment("smoke.failovers");
    }
    out->Emit(std::move(record));
  }

 private:
  SmokeAccessor* accessor_;
  const LookupFailover* failover_;
};

JobResult RunOnce(int threads) {
  ClusterConfig config;
  config.task_failure_rate = 0.1;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.host_downtimes.push_back({3});
  config.host_downtimes.push_back({7, 0.0, 1e-3});
  config.degraded_hosts.push_back(5);

  HostAvailability avail(config);
  LookupFailover failover(&config, &avail);
  SmokeScheme scheme(32, config.num_nodes, 3);
  SmokeAccessor accessor(&scheme);

  JobRunner runner(config);
  runner.set_num_threads(threads);

  JobConfig job;
  job.map_stages.push_back(
      std::make_shared<FailoverStage>(&accessor, &failover));
  job.num_reduce_tasks = 0;

  std::vector<InputSplit> input(36);
  int v = 0;
  for (size_t s = 0; s < input.size(); ++s) {
    input[s].node = static_cast<int>(s) % config.num_nodes;
    for (int r = 0; r < 40; ++r) {
      input[s].records.push_back(
          Record("key" + std::to_string(v % 64), "v" + std::to_string(v)));
      ++v;
    }
  }
  return runner.Run(job, input);
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
  if (serial.counters.Get("smoke.failovers") <= 0) {
    std::fprintf(stderr, "expected some failovers under down hosts\n");
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
  if (failures == 0) {
    std::printf("faults_tsan_smoke: OK\n");
    return 0;
  }
  return 1;
}
