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
  return static_cast<int>(Hash64(key) %
                          static_cast<uint64_t>(num_partitions_));
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

Status KvStore::Put(const std::string& key, IndexValue value) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  partitions_[scheme_.PartitionOf(key)][key].push_back(std::move(value));
  ++version_;
  return Status::OK();
}

Status KvStore::Get(std::string_view key, std::vector<IndexValue>* out) const {
  const auto& part = partitions_[scheme_.PartitionOf(key)];
  auto it = part.find(key);
  if (it == part.end()) return Status::NotFound();
  *out = it->second;
  return Status::OK();
}

bool KvStore::Contains(std::string_view key) const {
  const auto& part = partitions_[scheme_.PartitionOf(key)];
  return part.find(key) != part.end();
}

size_t KvStore::num_keys() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p.size();
  return n;
}

size_t KvStore::PartitionKeyCount(int p) const {
  if (p < 0 || p >= static_cast<int>(partitions_.size())) return 0;
  return partitions_[p].size();
}

}  // namespace efind
