// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Golden-digest helpers shared by the byte-level pin tests: an FNV-1a
// digest over everything an EFind run exposes (outputs with attachments,
// simulated seconds, plan, counters, job summaries, statistics), so a test
// can compare a run against a constant taken on an earlier engine.

#ifndef EFIND_TESTS_RUN_DIGEST_H_
#define EFIND_TESTS_RUN_DIGEST_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "mapreduce/record.h"

namespace efind {
namespace testing_util {

/// FNV-1a over everything a run exposes, doubles by bit pattern.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  void Rec(const Record& r) {
    Str(r.key);
    Str(r.value);
    U64(r.extra_bytes);
    U64(r.attachment ? 1 : 0);
    if (!r.attachment) return;
    const RecordAttachment& a = *r.attachment;
    U64(a.keys.size());
    for (const auto& ks : a.keys) {
      U64(ks.size());
      for (const auto& k : ks) Str(k);
    }
    U64(a.results.size());
    for (const auto& per_key : a.results) {
      U64(per_key.size());
      for (const auto& ivs : per_key) {
        U64(ivs.size());
        for (const auto& iv : ivs) {
          Str(iv.data);
          U64(iv.extra_bytes);
        }
      }
    }
    Str(a.saved_key);
    U64(a.has_saved_key ? 1 : 0);
  }
  void Splits(const std::vector<InputSplit>& splits) {
    U64(splits.size());
    for (const auto& s : splits) {
      U64(static_cast<uint64_t>(s.node));
      U64(s.records.size());
      for (const auto& r : s.records) Rec(r);
    }
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
  }
  void Stats(const std::vector<OperatorStats>& group) {
    U64(group.size());
    for (const auto& st : group) {
      F64(st.n1);
      F64(st.s1);
      F64(st.spre);
      F64(st.spost);
      F64(st.smap);
      U64(st.tasks_sampled);
      F64(st.max_cov);
      U64(st.valid ? 1 : 0);
      U64(st.index.size());
      for (const auto& ix : st.index) {
        F64(ix.nik);
        F64(ix.sik);
        F64(ix.siv);
        F64(ix.tj);
        F64(ix.theta);
        F64(ix.miss_ratio);
        U64(ix.repartitionable ? 1 : 0);
        F64(ix.max_key_share);
        U64(ix.hot_keys.size());
        for (uint64_t k : ix.hot_keys) U64(k);
        U64(static_cast<uint64_t>(ix.salt_fanout));
        F64(ix.avail_excess);
        F64(ix.down_share);
        F64(ix.failover_share);
      }
    }
  }
  void Collected(const CollectedStats& stats) {
    Stats(stats.head);
    Stats(stats.body);
    Stats(stats.tail);
  }
  void Run(const EFindRunResult& r) {
    Splits(r.outputs);
    F64(r.sim_seconds);
    F64(r.stats_wave_seconds);
    U64(r.replanned ? 1 : 0);
    Str(r.plan.ToString());
    for (const auto& [name, value] : r.counters.values()) {
      Str(name);
      F64(value);
    }
    U64(r.jobs.size());
    for (const auto& j : r.jobs) {
      Str(j.name);
      F64(j.map_seconds);
      F64(j.reduce_seconds);
      F64(j.boundary_seconds);
      U64(j.map_tasks);
      U64(j.reduce_tasks);
      Doubles(j.map_task_durations);
      Doubles(j.map_task_base_durations);
      Doubles(j.reduce_task_durations);
      Doubles(j.reduce_task_base_durations);
    }
    Collected(r.stats);
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

inline uint64_t DigestOf(const EFindRunResult& r) {
  Digest d;
  d.Run(r);
  return d.value();
}

inline uint64_t DigestOf(const CollectedStats& s) {
  Digest d;
  d.Collected(s);
  return d.value();
}

inline uint64_t DigestOf(const std::vector<InputSplit>& splits) {
  Digest d;
  d.Splits(splits);
  return d.value();
}

}  // namespace testing_util
}  // namespace efind

#endif  // EFIND_TESTS_RUN_DIGEST_H_
