#include "efind/statistics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/stage.h"

namespace efind {
namespace {

std::vector<std::vector<std::string>> OneKey(const std::string& k) {
  return {{k}};
}

/// Runs one task against `rt` the way the engine does: a TaskContext on
/// `node`, `feed` given the task's collector from `TaskLocal`, then the
/// task's state bag merged. Tests call this in task-index order, which is
/// the order the engine merges bags in.
template <typename Feed>
void RunTask(OperatorRuntime* rt, int node, int task_index, Feed&& feed) {
  Counters counters;
  TaskContext ctx(node, task_index, &counters);
  feed(rt->TaskLocal(&ctx));
  TaskStateBag bag = ctx.TakeTaskState();
  bag.Merge();
}

TEST(OperatorRuntimeTest, EmptyIsInvalid) {
  OperatorRuntime rt(1, 12, 1024);
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_FALSE(stats.valid);
}

TEST(OperatorRuntimeTest, BasicTableOneTerms) {
  OperatorRuntime rt(1, 12, 1024);
  // Two tasks, 3 records each; input 100 B, pre output 60 B, one 8-byte key
  // per record, each looked up once.
  for (int task = 0; task < 2; ++task) {
    RunTask(&rt, task, task, [](OperatorTaskStats* stats) {
      for (int r = 0; r < 3; ++r) {
        stats->PreRecord(100, 60, OneKey("key" + std::to_string(r) + "0000"));
        stats->LookupPerformed(0, 8, 200, 0.001);
      }
    });
  }
  // A post-side task (a later phase) with two output records.
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    stats->PostRecord(30);
    stats->PostRecord(30);
  });

  OperatorStats stats = rt.Compute(12, 1.0);
  ASSERT_TRUE(stats.valid);
  EXPECT_DOUBLE_EQ(stats.n1, 6.0 / 12);
  EXPECT_DOUBLE_EQ(stats.s1, 100.0);
  EXPECT_DOUBLE_EQ(stats.spre, 60.0);
  EXPECT_DOUBLE_EQ(stats.spost, 30.0);
  ASSERT_EQ(stats.index.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.index[0].nik, 1.0);
  EXPECT_DOUBLE_EQ(stats.index[0].sik, 8.0);
  EXPECT_DOUBLE_EQ(stats.index[0].siv, 200.0);
  EXPECT_DOUBLE_EQ(stats.index[0].tj, 0.001);
  EXPECT_TRUE(stats.index[0].repartitionable);
  EXPECT_EQ(stats.tasks_sampled, 2u);
}

TEST(OperatorRuntimeTest, ExtrapolationScalesN1Only) {
  OperatorRuntime rt(1, 12, 1024);
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    for (int r = 0; r < 10; ++r) stats->PreRecord(50, 50, OneKey("k"));
  });
  OperatorStats s1 = rt.Compute(12, 1.0);
  OperatorStats s4 = rt.Compute(12, 4.0);
  EXPECT_DOUBLE_EQ(s4.n1, 4 * s1.n1);
  EXPECT_DOUBLE_EQ(s4.s1, s1.s1);
  EXPECT_DOUBLE_EQ(s4.spre, s1.spre);
}

TEST(OperatorRuntimeTest, ThetaFromDuplicates) {
  OperatorRuntime rt(1, 12, 1024);
  // 5000 distinct keys, each extracted 3 times -> Theta ~ 3.
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 5000; ++i) {
        stats->PreRecord(10, 10, OneKey("key" + std::to_string(i)));
      }
    }
  });
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_GT(stats.index[0].theta, 2.0);
  EXPECT_LT(stats.index[0].theta, 4.5);
}

TEST(OperatorRuntimeTest, MultiKeyRecordsBlockRepartitioning) {
  OperatorRuntime rt(1, 12, 1024);
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    stats->PreRecord(10, 10, {{"a", "b"}});  // Two keys for index 0.
    stats->PreRecord(10, 10, OneKey("c"));
  });
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_FALSE(stats.index[0].repartitionable);
  EXPECT_DOUBLE_EQ(stats.index[0].nik, 1.5);
}

TEST(OperatorRuntimeTest, ShadowCacheEstimatesMissRatio) {
  OperatorRuntime rt(1, 2, 4);  // Capacity 4, two nodes.
  // Node 0 sees the same key repeatedly: high hit rate. Node 1 scans.
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    for (int i = 0; i < 100; ++i) stats->ShadowProbe(0, 0, "hot");
  });
  RunTask(&rt, 1, 1, [](OperatorTaskStats* stats) {
    for (int i = 0; i < 100; ++i) {
      stats->ShadowProbe(0, 1, "cold" + std::to_string(i));
    }
  });
  OperatorStats stats = rt.Compute(2, 1.0);
  // 1 miss + 99 hits on node 0; 100 misses on node 1 => R ~ 101/200.
  EXPECT_NEAR(stats.index[0].miss_ratio, 0.505, 1e-9);
}

TEST(OperatorRuntimeTest, CacheProbesFeedMissRatio) {
  OperatorRuntime rt(1, 12, 1024);
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    for (int i = 0; i < 8; ++i) stats->CacheProbe(0, i % 4 == 0);
  });
  OperatorStats stats = rt.Compute(12, 1.0);
  EXPECT_DOUBLE_EQ(stats.index[0].miss_ratio, 0.25);
}

TEST(OperatorRuntimeTest, VarianceGateSeesSkew) {
  OperatorRuntime uniform(1, 12, 16), skewed(1, 12, 16);
  for (int task = 0; task < 4; ++task) {
    RunTask(&uniform, task, task, [](OperatorTaskStats* stats) {
      for (int r = 0; r < 100; ++r) stats->PreRecord(50, 50, OneKey("k"));
    });
    const int skew_records = task == 0 ? 1000 : 10;
    RunTask(&skewed, task, task, [skew_records](OperatorTaskStats* stats) {
      for (int r = 0; r < skew_records; ++r) {
        stats->PreRecord(50, 50, OneKey("k"));
      }
    });
  }
  EXPECT_LT(uniform.Compute(12, 1.0).max_cov, 0.01);
  EXPECT_GT(skewed.Compute(12, 1.0).max_cov, 0.5);
}

TEST(OperatorStatsTest, SidxAccumulatesResults) {
  OperatorStats stats;
  stats.spre = 100;
  stats.index.resize(2);
  stats.index[0].nik = 1;
  stats.index[0].siv = 50;
  stats.index[1].nik = 2;
  stats.index[1].siv = 10;
  EXPECT_DOUBLE_EQ(stats.SidxAfter({}), 100.0);
  EXPECT_DOUBLE_EQ(stats.SidxAfter({0}), 150.0);
  EXPECT_DOUBLE_EQ(stats.SidxAfter({0, 1}), 170.0);
}

TEST(OperatorRuntimeTest, ResetClears) {
  OperatorRuntime rt(1, 12, 1024);
  RunTask(&rt, 0, 0, [](OperatorTaskStats* stats) {
    stats->PreRecord(10, 10, OneKey("a"));
  });
  rt.Reset();
  EXPECT_EQ(rt.total_inputs(), 0u);
  EXPECT_FALSE(rt.Compute(12, 1.0).valid);
}

}  // namespace
}  // namespace efind
