// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_LRU_CACHE_H_
#define EFIND_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_index.h"

namespace efind {

/// A fixed-capacity LRU cache mapping `Key` to `Value`.
///
/// This backs EFind's *lookup cache strategy* (paper Section 3.2): before
/// invoking `IndexAccessor::lookup` for a key, the runtime probes this cache;
/// a hit returns the cached result list and skips the (remote) lookup. The
/// statistics collector's key-only shadow caches (paper §4.2) are instances
/// too.
///
/// The capacity is measured in entries (the paper fixes it at 1024 entries
/// and leaves size tuning to future work; `bench_ablation_cache_size` sweeps
/// it). Not thread-safe; in the simulated cluster each node owns one cache
/// and tasks on a node run sequentially per slot.
///
/// Layout: a dense node array linked into a recency list by index, looked
/// up through a `FlatIndex`. Storage grows with the live entries up to the
/// capacity; from then on an insert reuses the evicted tail node, so a warm
/// cache allocates nothing per miss (beyond what copying the key or value
/// into the node's existing capacity needs).
template <typename Key, typename Value>
class LruCache {
 public:
  /// Creates a cache holding at most `capacity` entries. A capacity of 0
  /// disables caching (every Get misses, Put is a no-op).
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Looks up `key`; on a hit, moves the entry to the front (most recently
  /// used), copy-assigns the value into `*value` (reusing its capacity), and
  /// returns true. A miss leaves `*value` untouched.
  bool Get(const Key& key, Value* value) {
    ++probes_;
    const uint32_t n = Find(FlatKeyHash(key), key);
    if (n == FlatIndex::kNone) {
      ++misses_;
      return false;
    }
    MoveToFront(n);
    *value = nodes_[n].value;
    return true;
  }

  /// Inserts or refreshes `key` with a copy of `value`, evicting the least
  /// recently used entry if the cache is full. The copy is assigned into
  /// the refreshed or recycled node, reusing its key and value capacity.
  void Put(const Key& key, const Value& value) {
    if (capacity_ == 0) return;
    const uint64_t hash = FlatKeyHash(key);
    uint32_t n = Find(hash, key);
    if (n != FlatIndex::kNone) {
      nodes_[n].value = value;
      MoveToFront(n);
      return;
    }
    if (nodes_.size() >= capacity_) {
      // Recycle the least recently used node for the new entry.
      n = tail_;
      index_.Erase(nodes_[n].hash, n, HashOf());
      Unlink(n);
      Node& node = nodes_[n];
      node.key = key;
      node.value = value;
      node.hash = hash;
      index_.Insert(hash, n);
    } else {
      n = index_.Append(hash, nodes_.size(), HashOf());
      nodes_.push_back(Node{key, value, hash, kNil, kNil});
    }
    PushFront(n);
  }

  /// Removes all entries and resets hit/miss statistics.
  void Clear() {
    nodes_.clear();
    index_.Clear();
    head_ = tail_ = kNil;
    probes_ = 0;
    misses_ = 0;
  }

  size_t size() const { return nodes_.size(); }
  size_t capacity() const { return capacity_; }

  /// Total number of Get calls since construction or Clear.
  uint64_t probes() const { return probes_; }
  /// Number of Get calls that missed.
  uint64_t misses() const { return misses_; }
  /// Observed miss ratio R (paper Table 1); 1.0 when never probed.
  double miss_ratio() const {
    return probes_ == 0 ? 1.0
                        : static_cast<double>(misses_) /
                              static_cast<double>(probes_);
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    Key key;
    Value value;
    uint64_t hash;
    uint32_t prev;  // Towards the most recently used end; kNil at head_.
    uint32_t next;  // Towards the least recently used end; kNil at tail_.
  };

  auto HashOf() const {
    return [this](uint32_t n) { return nodes_[n].hash; };
  }

  uint32_t Find(uint64_t hash, const Key& key) const {
    return index_.Find(hash, [&](uint32_t n) {
      return nodes_[n].hash == hash && nodes_[n].key == key;
    });
  }

  void Unlink(uint32_t n) {
    Node& node = nodes_[n];
    (node.prev != kNil ? nodes_[node.prev].next : head_) = node.next;
    (node.next != kNil ? nodes_[node.next].prev : tail_) = node.prev;
  }

  void PushFront(uint32_t n) {
    Node& node = nodes_[n];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }

  void MoveToFront(uint32_t n) {
    if (n == head_) return;
    Unlink(n);
    PushFront(n);
  }

  size_t capacity_;
  std::vector<Node> nodes_;  // Every node is live; none is ever freed.
  FlatIndex index_;
  uint32_t head_ = kNil;  // Most recently used.
  uint32_t tail_ = kNil;  // Least recently used.
  uint64_t probes_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace efind

#endif  // EFIND_COMMON_LRU_CACHE_H_
