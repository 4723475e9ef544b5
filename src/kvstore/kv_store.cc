#include "kvstore/kv_store.h"

#include <utility>

#include "common/hash.h"

namespace efind {

HashPartitionScheme::HashPartitionScheme(int num_partitions, int num_nodes,
                                         int replication)
    : num_partitions_(num_partitions > 0 ? num_partitions : 1),
      num_nodes_(num_nodes > 0 ? num_nodes : 1),
      replication_(replication > 0 ? replication : 1) {
  if (replication_ > num_nodes_) replication_ = num_nodes_;
}

int HashPartitionScheme::PartitionOf(std::string_view key) const {
  return PartitionOfHash(Hash64(key));
}

int HashPartitionScheme::HostOfPartition(int p) const {
  // First replica; spread partitions round-robin over nodes.
  return p % num_nodes_;
}

bool HashPartitionScheme::NodeHostsPartition(int node, int p) const {
  for (int r = 0; r < replication_; ++r) {
    if ((p + r) % num_nodes_ == node) return true;
  }
  return false;
}

std::vector<int> HashPartitionScheme::ReplicasOf(int p) const {
  std::vector<int> nodes;
  nodes.reserve(replication_);
  for (int r = 0; r < replication_; ++r) {
    nodes.push_back((p + r) % num_nodes_);
  }
  return nodes;
}

KvStore::KvStore(const KvStoreOptions& options)
    : options_(options),
      scheme_(options.num_partitions, options.num_nodes, options.replication),
      partitions_(scheme_.num_partitions()) {}

uint32_t KvStore::Find(const Partition& part, uint64_t hash,
                       std::string_view key) {
  return part.index.Find(hash, [&](uint32_t e) {
    return part.entries[e].hash == hash && part.entries[e].key == key;
  });
}

Status KvStore::Put(const std::string& key, IndexValue value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  const uint64_t hash = Hash64(key);
  Partition& part = partitions_[scheme_.PartitionOfHash(hash)];
  uint32_t e = Find(part, hash, key);
  if (e == FlatIndex::kNone) {
    e = part.index.Append(hash, part.entries.size(), [&part](uint32_t i) {
      return part.entries[i].hash;
    });
    part.entries.push_back(Entry{key, {}, hash});
  }
  part.entries[e].values.push_back(std::move(value));
  ++version_;
  return Status::OK();
}

Status KvStore::Get(std::string_view key, std::vector<IndexValue>* out) const {
  const uint64_t hash = Hash64(key);
  const Partition& part = partitions_[scheme_.PartitionOfHash(hash)];
  const uint32_t e = Find(part, hash, key);
  if (e == FlatIndex::kNone) return Status::NotFound();
  *out = part.entries[e].values;
  return Status::OK();
}

bool KvStore::Contains(std::string_view key) const {
  const uint64_t hash = Hash64(key);
  return Find(partitions_[scheme_.PartitionOfHash(hash)], hash, key) !=
         FlatIndex::kNone;
}

size_t KvStore::num_keys() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p.entries.size();
  return n;
}

size_t KvStore::PartitionKeyCount(int p) const {
  if (p < 0 || p >= static_cast<int>(partitions_.size())) return 0;
  return partitions_[p].entries.size();
}

}  // namespace efind
