// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Golden Table-1 statistics: `CollectStatistics` over tiny TPC-H Q9 DUP10,
// a Zipf-1.2 synthetic join and the log-trace job, rendered field by field
// (every OperatorStats and IndexStats member, doubles at round-trip
// precision, hot-key hashes in full) and compared with text pinned from an
// earlier build. The per-key statistics layer — shadow caches, FM sketches,
// skew counts — may change how it stores keys, but never what it reports;
// the optimizer's plans and the cost model's numbers hang off these values.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "service/cloud_service.h"
#include "workloads/log_trace.h"
#include "workloads/synthetic.h"
#include "workloads/tpch.h"

namespace efind {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Describe(const std::string& name,
                     const std::vector<OperatorStats>& ops) {
  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OperatorStats& o = ops[i];
    const std::string op = name + std::to_string(i);
    out += op + " valid=" + std::to_string(o.valid) + " n1=" + Num(o.n1) +
           " s1=" + Num(o.s1) + " spre=" + Num(o.spre) +
           " spost=" + Num(o.spost) + " smap=" + Num(o.smap) +
           " tasks=" + std::to_string(o.tasks_sampled) +
           " max_cov=" + Num(o.max_cov) + "\n";
    for (size_t j = 0; j < o.index.size(); ++j) {
      const IndexStats& s = o.index[j];
      out += op + ".idx" + std::to_string(j) + " nik=" + Num(s.nik) +
             " sik=" + Num(s.sik) + " siv=" + Num(s.siv) +
             " tj=" + Num(s.tj) + " theta=" + Num(s.theta) +
             " miss_ratio=" + Num(s.miss_ratio) +
             " repart=" + std::to_string(s.repartitionable) +
             " max_key_share=" + Num(s.max_key_share) +
             " salt_fanout=" + std::to_string(s.salt_fanout) +
             " avail_excess=" + Num(s.avail_excess) +
             " down=" + Num(s.down_share) +
             " failover=" + Num(s.failover_share) +
             " hedge=" + Num(s.hedge_share) +
             " hedge_win=" + Num(s.hedge_win_share) +
             " flaky=" + Num(s.flaky_share) +
             " corrupt=" + Num(s.corrupt_share) +
             " breaker=" + Num(s.breaker_share) +
             " pages=" + Num(s.pages_per_lookup) +
             " idempotent=" + std::to_string(s.idempotent) +
             " scheme=" + std::to_string(s.has_partition_scheme) +
             " remote=" + Num(s.remote_overhead) +
             " artifact=" + std::to_string(s.artifact_repart) +
             std::to_string(s.artifact_idxloc) + " hot=[";
      for (size_t k = 0; k < s.hot_keys.size(); ++k) {
        if (k > 0) out += ",";
        out += std::to_string(s.hot_keys[k]);
      }
      out += "]\n";
    }
  }
  return out;
}

std::string Describe(const CollectedStats& stats) {
  return Describe("head", stats.head) + Describe("body", stats.body) +
         Describe("tail", stats.tail);
}

// Pinned from the build before the per-key layer moved to flat tables.
const char kQ9Golden[] = R"(head0 valid=1 n1=5095.833333333333 s1=76.398364677023707 spre=80.043172526573997 spost=78.97416189697465 smap=3.2454619787408014 tasks=24 max_cov=0.0075809343946029329
head0.idx0 nik=1 sik=3.6448078495502862 siv=514.22060506950118 tj=0.00035257110302534502 theta=167.60620223943519 miss_ratio=0.058838920686835647 repart=1 max_key_share=0.0052330335241210137 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[]
head1 valid=1 n1=5095.833333333333 s1=78.97416189697465 spre=82.794603434178256 spost=79.189380530973452 smap=3.2454619787408014 tasks=24 max_cov=0.0075342130863344054
head1.idx0 nik=1 sik=3.8204415372035978 siv=79.727718724448081 tj=0.00035039863859362137 theta=76.84778255987095 miss_ratio=0.11609157808667211 repart=1 max_key_share=0.0042518397383483238 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[]
head2 valid=1 n1=941.66666666666663 s1=79.189380530973452 spre=92.023008849557527 spost=17.830973451327434 smap=17.56283185840708 tasks=24 max_cov=0.018448469167782689
head2.idx0 nik=1 sik=8.5654867256637175 siv=28.892920353982301 tj=0.00035014446460176807 theta=50.972669308943409 miss_ratio=0.20672566371681417 repart=1 max_key_share=0.011504424778761062 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[]
head2.idx1 nik=1 sik=4.2681415929203537 siv=69.271681415929208 tj=0.00035034635840708019 theta=13.746829351881413 miss_ratio=0.35752212389380533 repart=1 max_key_share=0.0044247787610619468 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[]
head3 valid=1 n1=941.66666666666663 s1=17.830973451327434 spre=20.475221238938055 spost=17.56283185840708 smap=17.56283185840708 tasks=24 max_cov=0.018448469167782689
head3.idx0 nik=1 sik=2.6442477876106194 siv=24.64424778761062 tj=0.00035012322123894094 theta=118.63632478613266 miss_ratio=0.026548672566371681 repart=1 max_key_share=0.076991150442477882 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[]
)";

const char kZipfGolden[] = R"(head0 valid=1 n1=1666.6666666666667 s1=1002.83595 spre=1005.6719000000001 spost=2002.8359499999999 smap=2002.8359499999999 tasks=48 max_cov=0.0011433433616168476
head0.idx0 nik=1 sik=2.83595 siv=1000 tj=0.00035499999999999676 theta=8.1487525846983377 miss_ratio=0.2742 repart=1 max_key_share=0.20765 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=1 remote=0 artifact=00 hot=[4889596188055465614,2234169604072206022,5136754233957285178]
)";

const char kLogGolden[] = R"(head0 valid=1 n1=500 s1=435.10083333333336 spre=47.288833333333336 spost=14.605666666666666 smap=14.605666666666666 tasks=24 max_cov=0.12459604292690626
head0.idx0 nik=1 sik=12.188000000000001 siv=8.507833333333334 tj=0.00079999999999999711 theta=12.409418721036042 miss_ratio=0.26550000000000001 repart=1 max_key_share=0.083833333333333329 salt_fanout=8 avail_excess=0 down=0 failover=0 hedge=0 hedge_win=0 flaky=0 corrupt=0 breaker=0 pages=0 idempotent=1 scheme=0 remote=0 artifact=00 hot=[14532001273127897606,4979669465062431267]
)";

/// Collects statistics at threads=1 and threads=4 and requires both to
/// render as `golden`.
void ExpectGolden(const IndexJobConf& conf,
                  const std::vector<InputSplit>& input,
                  const std::string& golden) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EFindOptions options;
    options.threads = threads;
    EFindJobRunner runner(ClusterConfig{}, options);
    EXPECT_EQ(Describe(runner.CollectStatistics(conf, input)), golden);
  }
}

TEST(StatsGoldenTest, TpchQ9Dup10) {
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

TEST(StatsGoldenTest, ZipfSyntheticJoin) {
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

TEST(StatsGoldenTest, LogTraceTopUrls) {
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
