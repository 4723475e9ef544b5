// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// A Cassandra-style distributed key-value store, the index substrate the
// paper uses for most experiments ("Our experiments use Apache Cassandra to
// provide index services... The index is divided into 32 partitions using the
// HashPartitioner of Apache Hadoop. One index partition is replicated to
// three data nodes.").

#ifndef EFIND_KVSTORE_KV_STORE_H_
#define EFIND_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_index.h"
#include "common/partition_scheme.h"
#include "common/status.h"
#include "mapreduce/record.h"

namespace efind {

/// Hash partitioning with replica placement, mirroring the paper's setup
/// (hash of key modulo partition count; each partition replicated to
/// `replication` consecutive nodes starting at a deterministic offset).
class HashPartitionScheme : public PartitionScheme {
 public:
  HashPartitionScheme(int num_partitions, int num_nodes, int replication);

  int num_partitions() const override { return num_partitions_; }
  int PartitionOf(std::string_view key) const override;
  /// The partition of a key whose `Hash64` is `hash`.
  int PartitionOfHash(uint64_t hash) const {
    return static_cast<int>(hash % static_cast<uint64_t>(num_partitions_));
  }
  int HostOfPartition(int p) const override;
  bool NodeHostsPartition(int node, int p) const override;

  int replication() const { return replication_; }
  /// All replica nodes of partition `p`.
  std::vector<int> ReplicasOf(int p) const;

 private:
  int num_partitions_;
  int num_nodes_;
  int replication_;
};

/// Tunables for a `KvStore`.
struct KvStoreOptions {
  /// Number of hash partitions (paper: 32).
  int num_partitions = 32;
  /// Replicas per partition (paper: 3).
  int replication = 3;
  /// Cluster nodes the partitions are placed on (paper: 12).
  int num_nodes = 12;
  /// Fixed server-side time to serve one lookup (request parsing, memtable
  /// and SSTable probes in a Cassandra-style store). This is the constant
  /// part of T_j in Table 1.
  double base_service_sec = 350e-6;
  /// Server-side time per result byte (read + serialize); makes T_j grow
  /// with result size, as Figure 12 shows for local lookups.
  double serve_per_byte_sec = 5e-9;
};

/// In-memory distributed KV store. Each key maps to a *list* of values
/// (an index lookup returns `{iv}`, paper Fig. 2); `Put` appends.
class KvStore {
 public:
  explicit KvStore(const KvStoreOptions& options);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Appends `value` under `key` in the owning partition.
  Status Put(const std::string& key, IndexValue value);

  /// Retrieves all values under `key`. Returns NotFound when absent.
  Status Get(std::string_view key, std::vector<IndexValue>* out) const;

  /// True if `key` exists.
  bool Contains(std::string_view key) const;

  /// Server-side service time T_j for a lookup whose result totals
  /// `result_bytes` (excludes network transfer; the EFind runtime adds
  /// `(Sik + Siv)/BW` for remote lookups).
  double ServiceSeconds(uint64_t result_bytes) const {
    return options_.base_service_sec +
           options_.serve_per_byte_sec * static_cast<double>(result_bytes);
  }

  const HashPartitionScheme& scheme() const { return scheme_; }
  const KvStoreOptions& options() const { return options_; }

  /// Monotonic mutation counter: bumped by every successful `Put`. Feeds
  /// `KvIndexAccessor::VersionFingerprint`, so cross-job reuse artifacts
  /// derived from older store contents become unreachable (DESIGN.md §9).
  uint64_t version() const { return version_; }

  /// Total number of distinct keys.
  size_t num_keys() const;
  /// Number of keys in partition `p` (load-balance inspection).
  size_t PartitionKeyCount(int p) const;

 private:
  KvStoreOptions options_;
  HashPartitionScheme scheme_;
  uint64_t version_ = 0;
  struct Entry {
    std::string key;
    std::vector<IndexValue> values;
    uint64_t hash;  // Hash64(key).
  };
  /// One partition's hash table: a dense entry array behind a `FlatIndex`,
  /// probed with the same `Hash64` that chose the partition (the index
  /// re-mixes it, so `hash % num_partitions` being fixed within a partition
  /// does not cluster its slots).
  struct Partition {
    std::vector<Entry> entries;
    FlatIndex index;
  };

  /// The entry of `key` (whose `Hash64` is `hash`) in `part`, or
  /// FlatIndex::kNone.
  static uint32_t Find(const Partition& part, uint64_t hash,
                       std::string_view key);

  /// partitions_[p] = the hash table of partition p. Replication is a
  /// placement property (scheme_), not duplicated storage, since replicas
  /// are byte-identical by construction.
  std::vector<Partition> partitions_;
};

}  // namespace efind

#endif  // EFIND_KVSTORE_KV_STORE_H_
