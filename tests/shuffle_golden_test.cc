// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Golden pin of the MapReduce shuffle (DESIGN.md §11, §12): the output
// checksum (`reuse::ChecksumSplits`, so split order, record order and every
// record byte) and the bits of `sim_seconds` for tiny TPC-H Q9 DUP10, a
// Zipf-1.2 synthetic join and the log-trace job, under the baseline, cache,
// re-partitioning, index-locality and salted plans, the statically optimized
// plan and the adaptive runtime, at threads 1 and 4. The re-partitioning,
// index-locality and salted plans put a shuffle job in front of the join;
// Q9 and the log job also shuffle into their own reducers. A larger Q9
// input, with more splits than the default cluster's map slots, pins the
// adaptive runtime's mid-job plan change: the first wave's baseline map
// outputs and the re-planned pipeline's outputs meet in one reduce. The
// constants
// were taken on the engine that still kept the per-record
// `std::vector<Record>` shuffle beside the batched one, and both produced
// them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "reuse/materialized_store.h"
#include "service/cloud_service.h"
#include "workloads/log_trace.h"
#include "workloads/synthetic.h"
#include "workloads/tpch.h"

namespace efind {
namespace {

struct GoldenCase {
  std::string name;
  uint64_t checksum;
  uint64_t sim_bits;
};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

GoldenCase Pin(const std::string& name, const EFindRunResult& r) {
  return {name, reuse::ChecksumSplits(r.outputs), Bits(r.sim_seconds)};
}

/// Whether any physical job of the run had a reduce phase.
bool Shuffled(const EFindRunResult& r) {
  for (const auto& j : r.jobs) {
    if (j.reduce_tasks > 0) return true;
  }
  return false;
}

/// Runs every plan over `input` at `threads`, in a fixed order. The
/// re-partitioning plans must actually shuffle.
std::vector<GoldenCase> RunCases(const IndexJobConf& conf,
                                 const std::vector<InputSplit>& input,
                                 int threads) {
  EFindOptions options;
  options.threads = threads;
  EFindJobRunner runner(ClusterConfig{}, options);
  std::vector<GoldenCase> out;
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    const EFindRunResult r = runner.RunWithStrategy(conf, input, s);
    if (s == Strategy::kRepartition) {
      EXPECT_TRUE(Shuffled(r));
    }
    out.push_back(Pin(ToString(s), r));
  }
  const CollectedStats stats = runner.CollectStatistics(conf, input);
  const EFindRunResult salted = runner.RunWithPlan(
      conf, input, MakeUniformPlan(conf, Strategy::kSaltedRepartition),
      &stats);
  EXPECT_TRUE(Shuffled(salted));
  out.push_back(Pin("salted", salted));
  out.push_back(Pin("optimized",
                    runner.RunWithPlan(conf, input,
                                       runner.PlanFromStats(conf, stats),
                                       &stats)));
  out.push_back(Pin("dynamic", runner.RunDynamic(conf, input)));
  return out;
}

std::string Describe(const std::vector<GoldenCase>& cases) {
  std::string s;
  char buf[128];
  for (const auto& c : cases) {
    std::snprintf(buf, sizeof(buf),
                  "  {\"%s\", 0x%016llxull, 0x%016llxull},\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.checksum),
                  static_cast<unsigned long long>(c.sim_bits));
    s += buf;
  }
  return s;
}

void ExpectGolden(const IndexJobConf& conf,
                  const std::vector<InputSplit>& input,
                  const std::vector<GoldenCase>& golden) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<GoldenCase> actual = RunCases(conf, input, threads);
    ASSERT_EQ(actual.size(), golden.size()) << Describe(actual);
    for (size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(actual[i].name, golden[i].name);
      EXPECT_EQ(actual[i].checksum, golden[i].checksum)
          << actual[i].name << " (checksum)\nactual:\n" << Describe(actual);
      EXPECT_EQ(actual[i].sim_bits, golden[i].sim_bits)
          << actual[i].name << " (sim_seconds)\nactual:\n" << Describe(actual);
    }
  }
}

const std::vector<GoldenCase> kQ9Golden = {
  {"base", 0x4fd6d2810f4ad655ull, 0x4002d8bc7e7e93dbull},
  {"cache", 0x4fd6d2810f4ad655ull, 0x3fe15b602d33b463ull},
  {"repart", 0x4fd6d2810f4ad655ull, 0x3fc0abfbde7f9f10ull},
  {"idxloc", 0x4fd6d2810f4ad655ull, 0x3fc5e9792d09f0baull},
  {"salted", 0x4fd6d2810f4ad655ull, 0x3fc0abfbde7f9f10ull},
  {"optimized", 0x4fd6d2810f4ad655ull, 0x3fc61a02fa4a22bcull},
  {"dynamic", 0x4fd6d2810f4ad655ull, 0x4002d8bc7e7e93dbull},
};

const std::vector<GoldenCase> kZipfGolden = {
  {"base", 0xc9c4d27bd938c8fdull, 0x3fc60f4a423ada55ull},
  {"cache", 0xc9c4d27bd938c8fdull, 0x3fb47bf8db03d877ull},
  {"repart", 0x133ebf7f9f250b32ull, 0x3fd3b034b13d549dull},
  {"idxloc", 0x2c6a3f127fceb6acull, 0x3fc7d82dea298a74ull},
  {"salted", 0x4cf8670f64949480ull, 0x3fc1d6f131c5081dull},
  {"optimized", 0xc9c4d27bd938c8fdull, 0x3fb47bf8db03d877ull},
  {"dynamic", 0xc9c4d27bd938c8fdull, 0x3fc60f4a423ada55ull},
};

const std::vector<GoldenCase> kLogGolden = {
  {"base", 0x07f47a145a62e2fdull, 0x3fd1750d9140b831ull},
  {"cache", 0x07f47a145a62e2fdull, 0x3fb3ea3fa45abdcbull},
  {"repart", 0x07f47a145a62e2fdull, 0x3fa02a4c862c6b5aull},
  {"idxloc", 0x07f47a145a62e2fdull, 0x3fa02a4c862c6b5aull},
  {"salted", 0x07f47a145a62e2fdull, 0x3f9e85dfd641c370ull},
  {"optimized", 0x07f47a145a62e2fdull, 0x3fb3ea3fa45abdcbull},
  {"dynamic", 0x07f47a145a62e2fdull, 0x3fd1750d9140b831ull},
};

// RunDynamic over more splits than map slots: the first wave is a strict
// subset of the input, and the run re-plans after it.
const GoldenCase kQ9ReplannedGolden = {"dynamic", 0x4fd6d2810f4ad655ull,
                                        0x3fe0b88c5c806fcfull};

// The workloads are stats_golden_test's.

TEST(ShuffleGoldenTest, TpchQ9Dup10) {
  TpchOptions o;
  o.num_orders = 1500;
  o.num_customers = 400;
  o.num_suppliers = 300;
  o.num_parts = 600;
  o.num_splits = 24;
  o.dup_factor = 10;
  const TpchData data = GenerateTpch(o, ClusterConfig{}.num_nodes);
  ExpectGolden(MakeTpchQ9Job(data), data.lineitem, kQ9Golden);
}

TEST(ShuffleGoldenTest, TpchQ9Dup10Replanned) {
  TpchOptions o;
  o.num_orders = 1500;
  o.num_customers = 400;
  o.num_suppliers = 300;
  o.num_parts = 600;
  o.num_splits = 2 * ClusterConfig{}.total_map_slots();
  o.dup_factor = 10;
  const TpchData data = GenerateTpch(o, ClusterConfig{}.num_nodes);
  const IndexJobConf conf = MakeTpchQ9Job(data);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EFindOptions options;
    options.threads = threads;
    EFindJobRunner runner(ClusterConfig{}, options);
    const EFindRunResult r = runner.RunDynamic(conf, data.lineitem);
    EXPECT_TRUE(r.replanned);
    const GoldenCase actual = Pin("dynamic", r);
    EXPECT_EQ(actual.checksum, kQ9ReplannedGolden.checksum)
        << "actual:\n" << Describe({actual});
    EXPECT_EQ(actual.sim_bits, kQ9ReplannedGolden.sim_bits)
        << "actual:\n" << Describe({actual});
  }
}

TEST(ShuffleGoldenTest, ZipfSyntheticJoin) {
  SyntheticOptions syn;
  syn.num_records = 20000;
  syn.num_distinct_keys = 10000;
  syn.num_splits = 48;
  syn.zipf_theta = 1.2;
  const int nodes = ClusterConfig{}.num_nodes;
  const auto input = GenerateSynthetic(syn, nodes);
  KvStoreOptions kv;
  kv.num_nodes = nodes;
  KvStore store(kv);
  LoadSyntheticIndex(syn, &store);
  ExpectGolden(MakeSyntheticJoinJob(&store), input, kZipfGolden);
}

TEST(ShuffleGoldenTest, LogTraceTopUrls) {
  LogTraceOptions o;
  o.num_events = 6000;
  o.num_ips = 2000;
  o.num_urls = 500;
  o.num_splits = 24;
  const auto splits = GenerateLogTrace(o, ClusterConfig{}.num_nodes);
  const CloudService geo = MakeGeoIpService(20, CloudServiceOptions{});
  ExpectGolden(MakeLogTopUrlsJob(&geo, 5), splits, kLogGolden);
}

}  // namespace
}  // namespace efind
