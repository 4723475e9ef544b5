// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Reference decoder of a packed object store (DESIGN.md §13), independent
// of the store's lookup path. It reads each partition's data file whole and
// walks its object stream linearly from offset 0, checking every page
// trailer against the object starts it finds. It uses no Elias-Fano
// sequence, no page reader and no page cache. From the decoded objects it
// derives each block's first bin the way the builder defines it, and from
// those the pages a lookup of any key touches: the candidate block range
// plus the spill pages the bin-ordered scan reads past it.
//
// Tests compare the store's `Get`, `GetPaged` and batched flush against it.

#ifndef EFIND_TESTS_REFERENCE_PACKED_LOOKUP_H_
#define EFIND_TESTS_REFERENCE_PACKED_LOOKUP_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable.h"
#include "common/hash.h"
#include "kvstore/kv_store.h"
#include "mapreduce/record.h"
#include "store/packed_store.h"

namespace efind {
namespace store {

/// What a lookup of one key should produce.
struct ReferenceLookup {
  bool found = false;
  std::vector<IndexValue> values;
  int partition = -1;
  /// Pages of `partition` the lookup reads.
  std::set<uint64_t> pages;
};

class ReferencePackedStore {
 public:
  /// Decodes generation `version` of the store in `options.dir`. Returns
  /// false and sets `*error` when a data file is missing or its object
  /// stream disagrees with its page trailers.
  bool Load(const PackedStoreOptions& options, uint64_t version,
            std::string* error) {
    options_ = options;
    const uint64_t cap = options.page_bytes - 2;
    used_ = static_cast<uint64_t>(static_cast<double>(cap) * options.fill);
    used_ = std::clamp<uint64_t>(used_, 16, cap);
    scheme_ = HashPartitionScheme(options.num_partitions, options.num_nodes,
                                  options.replication);
    parts_.assign(options.num_partitions, Part());
    for (int p = 0; p < options.num_partitions; ++p) {
      const std::string path = options.dir + "/part" + std::to_string(p) +
                               ".g" + std::to_string(version) + ".dat";
      std::string raw;
      if (!durable::ReadFileContents(path, &raw)) {
        raw.clear();  // An empty partition writes an empty data file.
      }
      if (!DecodePartition(raw, &parts_[p])) {
        *error = "reference decode failed: " + path;
        return false;
      }
    }
    return true;
  }

  uint64_t usable_page_bytes() const { return used_; }

  /// Every key the store holds, in partition then stream order.
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    for (const Part& part : parts_) {
      for (const Object& o : part.objects) keys.push_back(o.key);
    }
    return keys;
  }

  /// Object-stream offset of each object header in partition `p`.
  std::vector<uint64_t> HeaderOffsets(int p) const {
    std::vector<uint64_t> out;
    for (const Object& o : parts_[p].objects) out.push_back(o.start);
    return out;
  }

  /// Data-file offset of object-stream byte `stream_offset`.
  uint64_t FileOffset(uint64_t stream_offset) const {
    return stream_offset / used_ * options_.page_bytes +
           stream_offset % used_;
  }

  ReferenceLookup Lookup(std::string_view key) const {
    ReferenceLookup r;
    r.partition = scheme_.PartitionOf(key);
    const Part& part = parts_[r.partition];
    if (part.objects.empty()) return r;
    const uint64_t hash = Hash64(key);
    const uint64_t bin = FastRange64(hash, part.num_bins);
    // Candidate range [q, p]: p is the last block whose first bin is at
    // most `bin`; q is one before the first block whose first bin reaches
    // `bin` (an object of `bin` may start in the block before it).
    int64_t last = -1;
    uint64_t first_reaching = part.num_blocks;
    for (uint64_t k = 0; k < part.num_blocks; ++k) {
      if (part.first_bin[k] <= bin) last = static_cast<int64_t>(k);
      if (first_reaching == part.num_blocks && part.first_bin[k] >= bin) {
        first_reaching = k;
      }
    }
    if (last < 0) return r;
    const uint64_t p = static_cast<uint64_t>(last);
    const uint64_t q = first_reaching == 0 ? 0 : first_reaching - 1;
    uint64_t max_page = p;
    auto touch = [&](uint64_t begin, uint64_t n) {
      if (n > 0) max_page = std::max(max_page, (begin + n - 1) / used_);
    };
    // The scan visits objects starting in blocks [q, p] in stream order;
    // the first object of a later bin ends it.
    for (const Object& o : part.objects) {
      if (o.start < q * used_) continue;
      if (o.start / used_ > p) break;
      touch(o.start, kHeaderBytes);
      if (FastRange64(o.hash, part.num_bins) > bin) break;
      if (o.hash == hash && o.key.size() == key.size()) {
        touch(o.start + kHeaderBytes, o.key.size());
        if (o.key == key) {
          touch(o.start + kHeaderBytes + o.key.size(), o.payload_bytes);
          r.found = true;
          r.values = o.values;
          break;
        }
      }
    }
    for (uint64_t k = q; k <= max_page; ++k) r.pages.insert(k);
    return r;
  }

 private:
  static constexpr uint64_t kHeaderBytes = 16;

  struct Object {
    uint64_t start = 0;  // Offset in the partition's object stream.
    uint64_t hash = 0;
    std::string key;
    uint64_t payload_bytes = 0;
    std::vector<IndexValue> values;
  };
  struct Part {
    uint64_t num_blocks = 0;
    uint64_t num_bins = 0;
    std::vector<Object> objects;
    std::vector<uint64_t> first_bin;
  };

  static uint64_t Load(const std::string& s, uint64_t at, int bytes) {
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(s[at + i]))
           << (8 * i);
    }
    return v;
  }

  bool DecodePartition(const std::string& raw, Part* part) const {
    const uint64_t page_bytes = options_.page_bytes;
    if (raw.size() % page_bytes != 0) return false;
    part->num_blocks = raw.size() / page_bytes;
    part->num_bins = part->num_blocks * options_.bins_per_block;
    std::string stream;
    std::vector<uint64_t> trailers;
    for (uint64_t k = 0; k < part->num_blocks; ++k) {
      stream.append(raw, k * page_bytes, used_);
      trailers.push_back(Load(raw, k * page_bytes + page_bytes - 2, 2));
    }
    // Objects run back to back from offset 0; zero fill follows the last.
    uint64_t pos = 0;
    while (pos + kHeaderBytes <= stream.size()) {
      Object o;
      o.start = pos;
      o.hash = Load(stream, pos, 8);
      const uint64_t key_len = Load(stream, pos + 8, 4);
      o.payload_bytes = Load(stream, pos + 12, 4);
      if (key_len == 0) break;
      const uint64_t key_at = pos + kHeaderBytes;
      const uint64_t end = key_at + key_len + o.payload_bytes;
      if (end > stream.size()) return false;
      o.key = stream.substr(key_at, key_len);
      if (o.hash != Hash64(o.key) ||
          !DecodeValues(stream, key_at + key_len, end, &o.values)) {
        return false;
      }
      part->objects.push_back(std::move(o));
      pos = end;
    }
    // Every trailer names the first object starting in its page, or 0xffff
    // when none does; the block's first bin is that object's bin, or the
    // last bin started before it.
    size_t next = 0;
    uint64_t carried = 0;
    for (uint64_t k = 0; k < part->num_blocks; ++k) {
      uint64_t expect = 0xffff;
      uint64_t first_bin = carried;
      while (next < part->objects.size() &&
             part->objects[next].start < (k + 1) * used_) {
        const uint64_t b =
            FastRange64(part->objects[next].hash, part->num_bins);
        if (expect == 0xffff) {
          expect = part->objects[next].start - k * used_;
          first_bin = b;
        }
        carried = b;
        ++next;
      }
      if (trailers[k] != expect) return false;
      part->first_bin.push_back(first_bin);
    }
    return true;
  }

  /// [u32 count] then per value [u32 len][bytes][u64 extra], exactly
  /// filling [at, end).
  static bool DecodeValues(const std::string& s, uint64_t at, uint64_t end,
                           std::vector<IndexValue>* out) {
    if (end - at < 4) return false;
    const uint64_t count = Load(s, at, 4);
    at += 4;
    for (uint64_t i = 0; i < count; ++i) {
      if (end - at < 4) return false;
      const uint64_t len = Load(s, at, 4);
      at += 4;
      if (end - at < len + 8) return false;
      IndexValue v(s.substr(at, len), Load(s, at + len, 8));
      out->push_back(std::move(v));
      at += len + 8;
    }
    return at == end;
  }

  PackedStoreOptions options_;
  uint64_t used_ = 0;
  HashPartitionScheme scheme_{1, 1, 1};
  std::vector<Part> parts_;
};

}  // namespace store
}  // namespace efind

#endif  // EFIND_TESTS_REFERENCE_PACKED_LOOKUP_H_
