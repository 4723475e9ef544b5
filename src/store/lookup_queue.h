// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deterministic batched lookup queue over a PackedObjectStore (DESIGN.md
// §13), in the PaCHash IoManager/QueryHandle mold: a caller submits many
// outstanding lookups against one handle, then flushes. The flush locates
// every key first and serves the lookups in completion order through the
// handle's `PageCache`, so it reads each distinct page it touches once,
// into a buffer the handle keeps for the next flush, and every lookup
// decodes its objects in place from those buffers. `distinct_pages` (what
// the batch actually reads) vs `uncoalesced_pages` (what the same lookups
// would read served one at a time) is the batch-efficiency signal the cost
// model consumes.
//
// Determinism contract: a flush's outcome is a pure function of the
// submitted key multiset. Completions are delivered sorted by (partition,
// first candidate block, submit ticket) — the "out of order" completion
// order of a real io_uring-style backend, but a fixed one — so threads=1 ≡
// threads=N and batched ≡ serial stay byte-identical upstream.

#ifndef EFIND_STORE_LOOKUP_QUEUE_H_
#define EFIND_STORE_LOOKUP_QUEUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mapreduce/record.h"
#include "store/packed_store.h"

namespace efind {
namespace store {

/// One submitted lookup's result. Tickets are submit indices on the owning
/// queue; (partition, first_block, ticket) is the fixed out-of-order
/// completion order.
struct LookupCompletion {
  /// Submit ticket (0-based submission index on the owning queue).
  uint64_t ticket = 0;
  bool found = false;
  /// True on an I/O / corruption error (values empty; found false).
  bool error = false;
  std::vector<IndexValue> values;
  /// Pages this lookup touches served alone (uncoalesced).
  uint64_t pages = 0;
  int partition = -1;
  uint64_t first_block = 0;
};

/// Everything a flush produced. `distinct_pages` vs `uncoalesced_pages`
/// feeds the page-read cost term and the `efind.store.*` counters.
struct FlushOutcome {
  /// Sorted by (partition, first_block, ticket).
  std::vector<LookupCompletion> completions;
  /// Distinct (partition, page) reads the batch performed successfully.
  uint64_t distinct_pages = 0;
  /// Sum of per-lookup pages — the serial cost of the same lookups.
  uint64_t uncoalesced_pages = 0;
};

/// The pages of one store read for a batch of lookups, decoded in place by
/// `PackedObjectStore::LookupWith`. The cache holds one window of
/// consecutive pages of one partition, in buffers it owns and reuses: a
/// lookup reads its pages in order from its first candidate block on, so
/// a read either hits the window or extends it by one page, and a read
/// that does neither starts a new window. Served in (partition, first
/// block) order with `DropBefore` between lookups, a batch reads each
/// distinct page once and holds only the pages its later lookups can
/// still touch. A failed read is never cached. Not thread-safe.
class PageCache {
 public:
  explicit PageCache(const PackedObjectStore* store);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Points `*data` at page `page` of `partition` (page_bytes bytes),
  /// reading it unless the window holds it. The pointer stays valid until
  /// the window moves past the page or a new window starts.
  Status Get(int partition, uint64_t page, const char** data);

  /// Forgets the pages before `page` of `partition`, and all pages when
  /// the window is in another partition. Keeps the buffers for reuse.
  void DropBefore(int partition, uint64_t page);

  /// Forgets every page and zeroes `pages_read`; keeps the buffers.
  void Clear();

  /// Pages read successfully since the last `Clear`.
  uint64_t pages_read() const { return pages_read_; }

 private:
  const PackedObjectStore* store_;
  /// The window: pages first_ .. first_ + count_ - 1 of partition_, page
  /// first_ + i in buffers_[i]. Buffers past count_ are spares.
  int partition_ = -1;
  uint64_t first_ = 0;
  size_t count_ = 0;
  std::vector<std::unique_ptr<char[]>> buffers_;
  uint64_t pages_read_ = 0;
};

/// Accumulates lookups and serves them in one coalesced sweep. Not
/// thread-safe; one queue belongs to one task (the store underneath is
/// shared and immutable).
class BatchedLookupQueue {
 public:
  explicit BatchedLookupQueue(const PackedObjectStore* store)
      : store_(store), pages_(store) {}

  BatchedLookupQueue(const BatchedLookupQueue&) = delete;
  BatchedLookupQueue& operator=(const BatchedLookupQueue&) = delete;

  /// Enqueues a lookup; returns its ticket.
  uint64_t Submit(std::string key);

  size_t pending() const { return pending_.size(); }

  /// Serves all pending lookups from the queue's page cache and clears the
  /// queue. Deterministic in the submitted key multiset.
  FlushOutcome Flush();

 private:
  const PackedObjectStore* store_;
  PageCache pages_;
  uint64_t next_ticket_ = 0;
  std::vector<std::pair<uint64_t, std::string>> pending_;
  /// Per-flush scratch, kept for its capacity: each pending lookup's
  /// location, and the pending indices in completion order.
  std::vector<PackedObjectStore::Location> located_;
  std::vector<uint32_t> order_;
};

}  // namespace store
}  // namespace efind

#endif  // EFIND_STORE_LOOKUP_QUEUE_H_
