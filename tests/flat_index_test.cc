// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests for FlatIndex, the open-addressing index behind the lookup and
// shadow caches, the skew counts, the KV partitions and the reduce-side
// grouping: the caller's key check separates entries whose hashes collide,
// and backward-shift deletion keeps every remaining entry reachable through
// long probe runs and growth.

#include "common/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace efind {
namespace {

TEST(FlatIndexTest, EmptyIndexFindsNothing) {
  FlatIndex index;
  EXPECT_EQ(index.Find(7, [](uint32_t) { return true; }), FlatIndex::kNone);
}

TEST(FlatIndexTest, CallerSeparatesCollidingHashes) {
  // Every entry shares one hash: one probe run holds them all, and only
  // the caller's check tells them apart.
  FlatIndex index;
  std::vector<uint64_t> hashes;
  auto hash_of = [&](uint32_t e) { return hashes[e]; };
  for (uint32_t e = 0; e < 100; ++e) {
    EXPECT_EQ(index.Append(42, hashes.size(), hash_of), e);
    hashes.push_back(42);
  }
  for (uint32_t e = 0; e < 100; ++e) {
    EXPECT_EQ(index.Find(42, [e](uint32_t c) { return c == e; }), e);
  }
  EXPECT_EQ(index.Find(42, [](uint32_t) { return false; }), FlatIndex::kNone);
  // Erase from the middle of the run; the rest stays reachable.
  for (uint32_t e = 10; e < 100; e += 10) index.Erase(42, e, hash_of);
  for (uint32_t e = 0; e < 100; ++e) {
    const uint32_t want = e % 10 == 0 && e > 0 ? FlatIndex::kNone : e;
    EXPECT_EQ(index.Find(42, [e](uint32_t c) { return c == e; }), want);
  }
}

// Random appends and recycles (erase an entry, re-insert its number under a
// new hash — what the LRU cache does on eviction) over a hash range small
// enough to force collisions and long runs. After every operation each
// entry must be found under its current hash and not under a stale one.
TEST(FlatIndexTest, RandomAppendAndRecycleKeepsEveryEntryReachable) {
  FlatIndex index;
  std::vector<uint64_t> hashes;
  auto hash_of = [&](uint32_t e) { return hashes[e]; };
  Rng rng(3);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t hash = rng.Uniform(64);
    if (hashes.empty() || (hashes.size() < 300 && rng.Uniform(3) == 0)) {
      index.Append(hash, hashes.size(), hash_of);
      hashes.push_back(hash);
    } else {
      const uint32_t e = static_cast<uint32_t>(rng.Uniform(hashes.size()));
      const uint64_t old_hash = hashes[e];
      index.Erase(old_hash, e, hash_of);
      ASSERT_EQ(index.Find(old_hash, [e](uint32_t c) { return c == e; }),
                FlatIndex::kNone)
          << "op " << op;
      hashes[e] = hash;
      index.Insert(hash, e);
    }
    for (uint32_t e = 0; e < hashes.size(); ++e) {
      ASSERT_EQ(index.Find(hashes[e], [e](uint32_t c) { return c == e; }), e)
          << "op " << op << " entry " << e;
    }
  }
}

}  // namespace
}  // namespace efind
