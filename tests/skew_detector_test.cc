// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests for the skew detector and the salting partitioner
// (DESIGN.md §12): hot-key flagging against the share threshold and the
// uniform guard, merge order-independence, and the deterministic
// round-robin salt assignment that spreads a hot key across sub-partitions
// while leaving cold keys exactly where HashPartitioner puts them.

#include "mapreduce/skew_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "mapreduce/partitioner.h"

namespace efind {
namespace {

TEST(SkewDetectorTest, FlagsHeavyHitterAboveThreshold) {
  SkewDetector det;
  const uint64_t hot = Hash64("hot");
  // 200 of 1200 observations (~17%) on one key, the rest spread over 1000
  // distinct cold keys.
  for (int i = 0; i < 200; ++i) det.Observe(hot);
  for (int i = 0; i < 1000; ++i) {
    det.Observe(Hash64("cold" + std::to_string(i)));
  }
  const auto hot_keys = det.HotKeys(/*threshold=*/0.05);
  ASSERT_EQ(hot_keys.size(), 1u);
  EXPECT_EQ(hot_keys[0].hash, hot);
  EXPECT_EQ(hot_keys[0].count, 200u);
  EXPECT_NEAR(det.MaxShare(), 200.0 / 1200.0, 1e-12);
}

TEST(SkewDetectorTest, UniformStreamFlagsNothing) {
  SkewDetector det;
  for (int i = 0; i < 5000; ++i) {
    det.Observe(Hash64("k" + std::to_string(i % 500)));
  }
  // Every key holds 1/500 of the stream — far below the 5% gate.
  EXPECT_TRUE(det.HotKeys(0.05).empty());
}

TEST(SkewDetectorTest, UniformGuardBlocksTinyDomains) {
  // 3 keys at ~33% each: each clears a naive 5% threshold, but the uniform
  // guard (4 / distinct) recognizes the shares as the natural
  // uniform share of a tiny domain, not skew.
  SkewDetector det;
  for (int i = 0; i < 300; ++i) {
    det.Observe(Hash64("k" + std::to_string(i % 3)));
  }
  EXPECT_TRUE(det.HotKeys(0.05).empty());
}

TEST(SkewDetectorTest, MergeIsOrderIndependent) {
  SkewDetector a, b, c;
  for (int i = 0; i < 90; ++i) a.Observe(Hash64("hot"));
  for (int i = 0; i < 200; ++i) {
    b.Observe(Hash64("x" + std::to_string(i)));
    c.Observe(Hash64("y" + std::to_string(i)));
  }
  for (int i = 0; i < 60; ++i) c.Observe(Hash64("hot"));

  SkewDetector ab = a;
  ab.Merge(b);
  ab.Merge(c);
  SkewDetector cb = c;
  cb.Merge(b);
  cb.Merge(a);

  const auto h1 = ab.HotKeys(0.05);
  const auto h2 = cb.HotKeys(0.05);
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1[i].hash, h2[i].hash);
    EXPECT_EQ(h1[i].count, h2[i].count);
  }
  ASSERT_EQ(h1.size(), 1u);
  EXPECT_EQ(h1[0].hash, Hash64("hot"));
  EXPECT_EQ(h1[0].count, 150u);
}

/// 600k Zipf-0.9 draws over a 400k-key domain, as key hashes: well over
/// 100k distinct hashes, so the flat count table grows many times.
std::vector<uint64_t> ZipfStream() {
  Rng rng(42);
  ZipfGenerator zipf(400000, 0.9);
  std::vector<uint64_t> stream;
  stream.reserve(600000);
  for (int i = 0; i < 600000; ++i) {
    stream.push_back(Hash64("k" + std::to_string(zipf.Next(&rng))));
  }
  return stream;
}

std::vector<std::pair<uint64_t, uint64_t>> Pairs(
    const std::vector<SkewDetector::HotKey>& hot) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& h : hot) out.emplace_back(h.hash, h.count);
  return out;
}

TEST(SkewDetectorTest, ZipfStreamMatchesPinnedCounts) {
  const std::vector<uint64_t> stream = ZipfStream();
  std::vector<uint64_t> distinct = stream;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_GT(distinct.size(), 100000u);

  SkewDetector det;
  for (uint64_t h : stream) det.Observe(h);
  EXPECT_EQ(det.total(), 600000u);
  // Pinned from the node-based implementation this table replaced.
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {4889596188055465614ull, 22194u}, {2234169604072206022ull, 11938u},
      {5136754233957285178ull, 8385u},  {17806584776444317997ull, 6334u},
      {13478880299882982758ull, 5246u}, {3137027677545614035ull, 4437u},
      {3603092661527786968ull, 3933u},  {9486127208745077908ull, 3361u}};
  EXPECT_EQ(Pairs(det.HotKeys(0.005)), expected);
  // Every key above 0.01% of the stream, uncapped: how many, and their
  // summed counts.
  const auto wide = det.HotKeys(0.0001, 1 << 20);
  uint64_t wide_sum = 0;
  for (const auto& h : wide) wide_sum += h.count;
  EXPECT_EQ(wide.size(), 724u);
  EXPECT_EQ(wide_sum, 220969u);
  EXPECT_EQ(det.MaxShare(), 22194 / 600000.0);
  EXPECT_TRUE(det.HotKeys(0.5).empty());
}

TEST(SkewDetectorTest, AnySplitMergedInOrderEqualsWholeStream) {
  const std::vector<uint64_t> stream = ZipfStream();
  SkewDetector whole;
  for (uint64_t h : stream) whole.Observe(h);

  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // 2..33 parts at random cut points, merged in stream order.
    const int parts = 2 + static_cast<int>(rng.Uniform(32));
    std::vector<size_t> cuts = {0, stream.size()};
    for (int p = 1; p < parts; ++p) cuts.push_back(rng.Uniform(stream.size()));
    std::sort(cuts.begin(), cuts.end());
    SkewDetector merged;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      SkewDetector part;
      for (size_t i = cuts[c]; i < cuts[c + 1]; ++i) part.Observe(stream[i]);
      merged.Merge(part);
    }
    EXPECT_EQ(merged.total(), whole.total());
    EXPECT_EQ(merged.MaxShare(), whole.MaxShare());
    for (double threshold : {0.05, 0.005, 0.0001}) {
      EXPECT_EQ(Pairs(merged.HotKeys(threshold)),
                Pairs(whole.HotKeys(threshold)));
    }
  }
}

TEST(SaltingPartitionerTest, ColdKeysMatchHashPartitioner) {
  SaltingPartitioner salting({Hash64("hot")}, /*fanout=*/4);
  SaltCycler cycler;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "cold" + std::to_string(i);
    const uint64_t h = Hash64(key);
    EXPECT_EQ(salting.PartitionHash(h, &cycler, 48),
              HashPartitioner::FromHash(h, 48));
  }
}

TEST(SaltingPartitionerTest, HotKeySpreadsRoundRobinOverFanout) {
  const uint64_t hot = Hash64("hot");
  SaltingPartitioner salting({hot}, /*fanout=*/4);
  SaltCycler cycler;
  std::vector<int> first_cycle;
  for (int i = 0; i < 4; ++i) {
    first_cycle.push_back(salting.PartitionHash(hot, &cycler, 48));
  }
  // The salt cycles 0..fanout-1, so the next fanout records repeat the
  // exact same partition sequence.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(salting.PartitionHash(hot, &cycler, 48), first_cycle[i]);
  }
  // The fanout sub-partitions are distinct for this (key, num_partitions).
  std::vector<int> sorted = first_cycle;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GE(sorted.size(), 2u) << "salting failed to spread the hot key";
}

TEST(SaltingPartitionerTest, CyclerStateIsPerKey) {
  const uint64_t hot_a = Hash64("a");
  const uint64_t hot_b = Hash64("b");
  SaltingPartitioner salting({hot_a, hot_b}, /*fanout=*/3);
  SaltCycler lone;
  const int a0 = salting.PartitionHash(hot_a, &lone, 48);
  SaltCycler interleaved;
  // Interleaving another hot key must not advance a's cycle.
  salting.PartitionHash(hot_b, &interleaved, 48);
  EXPECT_EQ(salting.PartitionHash(hot_a, &interleaved, 48), a0);
}

TEST(SaltingPartitionerTest, StatelessInterfaceIsDeterministic) {
  const uint64_t hot = Hash64("hot");
  SaltingPartitioner salting({hot}, /*fanout=*/4);
  // The Partitioner-interface entry point (no cycler) pins salt 0.
  EXPECT_EQ(salting.Partition("hot", 48),
            SaltingPartitioner::Salted(hot, 0, 48));
  EXPECT_EQ(salting.Partition("cold", 48),
            HashPartitioner::FromHash(Hash64("cold"), 48));
}

}  // namespace
}  // namespace efind
