// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef EFIND_COMMON_FLAT_INDEX_H_
#define EFIND_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.h"

namespace efind {

/// Open-addressing index over an entry array the caller owns (DESIGN.md
/// §6). Each slot holds `entry + 1` (0 = empty); probing is linear from a
/// home slot taken from the key's 64-bit hash after one more `Mix64`. The
/// re-mix matters: the tables this serves are often shards of a key space
/// already split on the same hash — a KV partition holds one residue of
/// `hash % n`, a reduce task one `FastRange64` range of its high bits — so
/// neither the low nor the high bits of the raw hash vary within a table.
/// The index stores no keys: `Find` asks the caller to verify each
/// candidate entry, which keeps one index usable for string, integer and
/// pre-hashed keys alike.
///
/// The load factor stays at or below 1/2. Memory is 4 bytes per slot, and
/// nothing is allocated except when `Append` grows the slot array.
class FlatIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Returns the entry stored under `hash` for which `is_match(entry)`
  /// holds, or kNone.
  template <typename IsMatch>
  uint32_t Find(uint64_t hash, IsMatch&& is_match) const {
    if (slots_.empty()) return kNone;
    for (size_t s = Home(hash);; s = (s + 1) & mask_) {
      const uint32_t v = slots_[s];
      if (v == 0) return kNone;
      if (is_match(v - 1)) return v - 1;
    }
  }

  /// Records a new entry numbered `count` (the caller's entry count before
  /// it appends the entry) under `hash` and returns that number. Grows the
  /// slot array when the load would pass 1/2, re-inserting entries
  /// 0..`count`-1 under `hash_of(e)`.
  template <typename HashOf>
  uint32_t Append(uint64_t hash, size_t count, HashOf&& hash_of) {
    if ((count + 1) * 2 > slots_.size()) {
      size_t n = kMinSlots;
      while (n < (count + 1) * 2) n <<= 1;
      slots_.assign(n, 0);
      mask_ = n - 1;
      shift_ = 64;
      for (size_t m = n; m > 1; m >>= 1) --shift_;
      for (uint32_t e = 0; e < count; ++e) Insert(hash_of(e), e);
    }
    const uint32_t entry = static_cast<uint32_t>(count);
    Insert(hash, entry);
    return entry;
  }

  /// Records existing `entry` under `hash` (after an `Erase` freed its old
  /// slot); the entry count, and so the load, is unchanged.
  void Insert(uint64_t hash, uint32_t entry) {
    size_t s = Home(hash);
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = entry + 1;
  }

  /// Removes `entry`, stored under `hash`, by backward-shift deletion: every
  /// later entry of the probe run whose home slot does not lie cyclically in
  /// (hole, its slot] moves back into the hole, so no tombstones are left.
  /// `hash_of(e)` returns the hash entry `e` was inserted under. The caller
  /// re-inserts the entry number (`Insert`) before its next `Append`, which
  /// assumes every entry below its count is live.
  template <typename HashOf>
  void Erase(uint64_t hash, uint32_t entry, HashOf&& hash_of) {
    size_t hole = Home(hash);
    while (slots_[hole] != entry + 1) hole = (hole + 1) & mask_;
    for (size_t s = (hole + 1) & mask_; slots_[s] != 0; s = (s + 1) & mask_) {
      const size_t home = Home(hash_of(slots_[s] - 1));
      // Distances from `home`: the entry may fill the hole only if the hole
      // is no further along its probe run than its current slot.
      if (((s - home) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = 0;
  }

  /// Empties every slot (keeps the slot array).
  void Clear() { slots_.assign(slots_.size(), 0); }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>(Mix64(hash) >> shift_);
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
};

/// The 64-bit hash flat tables key on: `Hash64` for byte strings (the same
/// value the partitioners use), the value itself for integers (the index
/// mixes it before use).
inline uint64_t FlatKeyHash(std::string_view key) { return Hash64(key); }
template <typename T>
  requires std::is_integral_v<T>
inline uint64_t FlatKeyHash(T key) {
  return static_cast<uint64_t>(key);
}

}  // namespace efind

#endif  // EFIND_COMMON_FLAT_INDEX_H_
