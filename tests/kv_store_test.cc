#include "kvstore/kv_store.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace efind {
namespace {

KvStoreOptions PaperOptions() {
  KvStoreOptions o;
  o.num_partitions = 32;
  o.replication = 3;
  o.num_nodes = 12;
  return o;
}

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store(PaperOptions());
  ASSERT_TRUE(store.Put("user1", IndexValue("profile1")).ok());
  std::vector<IndexValue> out;
  ASSERT_TRUE(store.Get("user1", &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data, "profile1");
}

TEST(KvStoreTest, GetMissingReturnsNotFound) {
  KvStore store(PaperOptions());
  std::vector<IndexValue> out;
  EXPECT_TRUE(store.Get("ghost", &out).IsNotFound());
  EXPECT_FALSE(store.Contains("ghost"));
}

TEST(KvStoreTest, EmptyKeyRejected) {
  KvStore store(PaperOptions());
  EXPECT_TRUE(store.Put("", IndexValue("x")).IsInvalidArgument());
}

TEST(KvStoreTest, MultipleValuesPerKey) {
  // An index lookup returns a list {iv} (paper Fig. 2).
  KvStore store(PaperOptions());
  store.Put("k", IndexValue("v1")).ok();
  store.Put("k", IndexValue("v2")).ok();
  std::vector<IndexValue> out;
  ASSERT_TRUE(store.Get("k", &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].data, "v1");
  EXPECT_EQ(out[1].data, "v2");
}

TEST(KvStoreTest, StringViewProbesNeedNoTerminatedKey) {
  // Probes are looked up as views: a key slice inside a longer buffer must
  // find exactly its own entry, and route to the partition of the owned
  // string the entry was stored under.
  KvStore store(PaperOptions());
  store.Put("user1", IndexValue("profile1")).ok();
  const std::string buffer = "user12";
  const std::string_view slice(buffer.data(), 5);
  EXPECT_EQ(store.scheme().PartitionOf(slice),
            store.scheme().PartitionOf(std::string("user1")));
  std::vector<IndexValue> out;
  ASSERT_TRUE(store.Get(slice, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data, "profile1");
  EXPECT_TRUE(store.Contains(slice));
  EXPECT_FALSE(store.Contains(std::string_view(buffer)));
  EXPECT_FALSE(store.Contains(std::string_view(buffer.data(), 4)));
}

TEST(KvStoreTest, KeysSpreadAcrossPartitions) {
  KvStore store(PaperOptions());
  for (int i = 0; i < 32000; ++i) {
    store.Put("key" + std::to_string(i), IndexValue("v")).ok();
  }
  EXPECT_EQ(store.num_keys(), 32000u);
  for (int p = 0; p < 32; ++p) {
    EXPECT_GT(store.PartitionKeyCount(p), 500u);
    EXPECT_LT(store.PartitionKeyCount(p), 1500u);
  }
}

// Few partitions and many keys, so every partition's table grows several
// times and its probe runs get long; 3 partitions is not a power of two.
// Each key must live in exactly the partition the scheme names, keep its
// values in Put order, and stay distinct from keys never stored.
TEST(KvStoreTest, FlatPartitionsKeepEveryKeyWhereTheSchemeSays) {
  for (int partitions : {1, 3, 32}) {
    SCOPED_TRACE("partitions " + std::to_string(partitions));
    KvStoreOptions o = PaperOptions();
    o.num_partitions = partitions;
    KvStore store(o);
    constexpr int kKeys = 30000;
    std::vector<size_t> expected_per_partition(partitions, 0);
    uint64_t puts = 0;
    // Round r appends value r to every key with id % (r + 1) == 0, so key
    // i ends up with the values of rounds {r : i % (r + 1) == 0} in order.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kKeys; ++i) {
        if (i % (round + 1) != 0) continue;
        const std::string key = "key" + std::to_string(i);
        ASSERT_TRUE(
            store.Put(key, IndexValue("v" + std::to_string(round))).ok());
        ++puts;
        if (round == 0) {
          ++expected_per_partition[store.scheme().PartitionOf(key)];
        }
      }
    }
    EXPECT_EQ(store.num_keys(), static_cast<size_t>(kKeys));
    EXPECT_EQ(store.version(), puts);
    for (int p = 0; p < partitions; ++p) {
      EXPECT_EQ(store.PartitionKeyCount(p), expected_per_partition[p]);
    }
    EXPECT_EQ(store.PartitionKeyCount(partitions), 0u);
    EXPECT_EQ(store.PartitionKeyCount(-1), 0u);
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "key" + std::to_string(i);
      std::vector<IndexValue> out;
      ASSERT_TRUE(store.Get(key, &out).ok()) << key;
      std::vector<std::string> want;
      for (int round = 0; round < 3; ++round) {
        if (i % (round + 1) == 0) want.push_back("v" + std::to_string(round));
      }
      ASSERT_EQ(out.size(), want.size()) << key;
      for (size_t v = 0; v < want.size(); ++v) EXPECT_EQ(out[v].data, want[v]);
      ASSERT_TRUE(store.Contains(key));
      // A neighbour that was never stored, in the same buffer prefix.
      const std::string absent = key + "x";
      EXPECT_TRUE(store.Get(absent, &out).IsNotFound()) << absent;
      EXPECT_FALSE(store.Contains(absent)) << absent;
    }
  }
}

TEST(KvStoreTest, ServiceTimeGrowsWithResultSize) {
  KvStore store(PaperOptions());
  EXPECT_GT(store.ServiceSeconds(30000), store.ServiceSeconds(10));
  EXPECT_DOUBLE_EQ(store.ServiceSeconds(0),
                   store.options().base_service_sec);
}

TEST(HashPartitionSchemeTest, PartitionOfIsStableAndInRange) {
  HashPartitionScheme scheme(32, 12, 3);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const int p = scheme.PartitionOf(key);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 32);
    EXPECT_EQ(p, scheme.PartitionOf(key));
  }
}

TEST(HashPartitionSchemeTest, ReplicationPlacement) {
  HashPartitionScheme scheme(32, 12, 3);
  for (int p = 0; p < 32; ++p) {
    const auto replicas = scheme.ReplicasOf(p);
    ASSERT_EQ(replicas.size(), 3u);
    // The primary host is a replica, and all replicas host the partition.
    EXPECT_EQ(replicas[0], scheme.HostOfPartition(p));
    for (int node : replicas) {
      EXPECT_TRUE(scheme.NodeHostsPartition(node, p));
    }
    // Some node does not host it (3 of 12).
    int hosting = 0;
    for (int n = 0; n < 12; ++n) {
      if (scheme.NodeHostsPartition(n, p)) ++hosting;
    }
    EXPECT_EQ(hosting, 3);
  }
}

TEST(HashPartitionSchemeTest, ReplicationClampedToNodes) {
  HashPartitionScheme scheme(4, 2, 5);
  EXPECT_EQ(scheme.replication(), 2);
}

TEST(HashPartitionSchemeTest, StoreAgreesWithScheme) {
  // The scheme EFind obtains must describe where the store actually keeps
  // keys — that is what index locality relies on.
  KvStore store(PaperOptions());
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    store.Put(key, IndexValue("v")).ok();
    const int p = store.scheme().PartitionOf(key);
    EXPECT_GT(store.PartitionKeyCount(p), 0u);
  }
}

}  // namespace
}  // namespace efind
