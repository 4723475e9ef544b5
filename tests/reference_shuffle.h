// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// A naive MapReduce shuffle for tests to check the engine's against: plain
// record vectors and a `std::map` per reduce task — no batches, arenas,
// digests or hash tables.

#ifndef EFIND_TESTS_REFERENCE_SHUFFLE_H_
#define EFIND_TESTS_REFERENCE_SHUFFLE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/hash.h"
#include "mapreduce/counters.h"
#include "mapreduce/job.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/record.h"
#include "mapreduce/stage.h"

namespace efind {
namespace testing_util {

/// Collects whatever a reducer or stage emits.
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(std::vector<Record>* out) : out_(out) {}
  void Emit(Record record) override { out_->push_back(std::move(record)); }

 private:
  std::vector<Record>* out_;
};

/// The output splits of `job` over `input`, for a job without map stages or
/// `reduce_task_nodes`. Each input record goes to the reduce task the job's
/// partitioner picks; a salting partitioner cycles a hot key through its
/// salts per map task, in record order. Each reduce task groups its records
/// by key, values in arrival order (map task order, then record order),
/// runs the reducer over the groups in key order (without a reducer the
/// grouped records pass through), then each reduce stage over the result.
/// Reduce task r's split is placed on node r % num_nodes.
inline std::vector<InputSplit> ReferenceShuffle(
    const JobConfig& job, const std::vector<InputSplit>& input,
    const ClusterConfig& config) {
  int num_reduce = 1;
  if (job.reducer) {
    num_reduce = job.num_reduce_tasks > 0 ? job.num_reduce_tasks
                                          : config.total_reduce_slots();
  }
  const HashPartitioner hash;
  const Partitioner& part = job.partitioner
                                ? *job.partitioner
                                : static_cast<const Partitioner&>(hash);
  const auto* salting = dynamic_cast<const SaltingPartitioner*>(&part);

  std::vector<std::map<std::string, std::vector<Record>>> buckets(num_reduce);
  for (const InputSplit& split : input) {
    SaltCycler cycler;
    for (const Record& r : split.records) {
      const int p =
          !job.reducer ? 0
          : salting    ? salting->PartitionHash(Hash64(r.key), &cycler,
                                                num_reduce)
                       : part.Partition(r.key, num_reduce);
      buckets[p][r.key].push_back(r);
    }
  }

  std::vector<InputSplit> out(num_reduce);
  for (int p = 0; p < num_reduce; ++p) {
    out[p].node = p % config.num_nodes;
    Counters counters;
    TaskContext ctx(out[p].node, p, &counters);
    std::vector<Record> records;
    VectorEmitter emit(&records);
    if (job.reducer) {
      job.reducer->BeginTask(&ctx);
      for (auto& [key, values] : buckets[p]) {
        job.reducer->Reduce(key, std::move(values), &ctx, &emit);
      }
      job.reducer->EndTask(&ctx, &emit);
    } else {
      for (auto& [key, values] : buckets[p]) {
        for (Record& v : values) records.push_back(std::move(v));
      }
    }
    for (const auto& stage : job.reduce_stages) {
      std::vector<Record> next;
      VectorEmitter to_next(&next);
      stage->BeginTask(&ctx);
      for (Record& r : records) stage->Process(std::move(r), &ctx, &to_next);
      stage->EndTask(&ctx, &to_next);
      records = std::move(next);
    }
    out[p].records = std::move(records);
  }
  return out;
}

}  // namespace testing_util
}  // namespace efind

#endif  // EFIND_TESTS_REFERENCE_SHUFFLE_H_
