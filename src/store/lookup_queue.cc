// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "store/lookup_queue.h"

#include <algorithm>
#include <utility>

#include "store/packed_store.h"

namespace efind {
namespace store {

PageCache::PageCache(const PackedObjectStore* store) : store_(store) {}

Status PageCache::Get(int partition, uint64_t page, const char** data) {
  if (partition == partition_ && page >= first_ && page - first_ < count_) {
    *data = buffers_[page - first_].get();
    return Status::OK();
  }
  if (partition != partition_ || page != first_ + count_) {
    partition_ = partition;  // Not an extension: start a new window.
    first_ = page;
    count_ = 0;
  }
  if (count_ == buffers_.size()) {
    buffers_.push_back(std::make_unique<char[]>(store_->page_bytes()));
  }
  char* buf = buffers_[count_].get();
  const Status s = store_->ReadPage(partition, page, buf);
  if (!s.ok()) return s;  // Failed pages are never cached.
  ++count_;
  ++pages_read_;
  *data = buf;
  return Status::OK();
}

void PageCache::DropBefore(int partition, uint64_t page) {
  if (partition != partition_ || page >= first_ + count_) {
    partition_ = partition;
    first_ = page;
    count_ = 0;
    return;
  }
  if (page <= first_) return;
  // The dropped buffers rotate behind the window and become spares.
  const size_t drop = static_cast<size_t>(page - first_);
  std::rotate(buffers_.begin(), buffers_.begin() + drop,
              buffers_.begin() + count_);
  first_ = page;
  count_ -= drop;
}

void PageCache::Clear() {
  partition_ = -1;
  first_ = 0;
  count_ = 0;
  pages_read_ = 0;
}

uint64_t BatchedLookupQueue::Submit(std::string key) {
  const uint64_t ticket = next_ticket_++;
  pending_.emplace_back(ticket, std::move(key));
  return ticket;
}

FlushOutcome BatchedLookupQueue::Flush() {
  FlushOutcome outcome;
  if (pending_.empty()) return outcome;
  const size_t n = pending_.size();
  // Locate every key, then serve the lookups in the fixed out-of-order
  // delivery order: storage order, then submission order. A lookup reads
  // its pages from its first candidate block on, so the cache only has to
  // hold the pages at or past that block, and each distinct page is still
  // read once. The set of pages read does not depend on the order, so the
  // whole outcome is a pure function of the submitted key multiset.
  located_.resize(n);
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    located_[i] = store_->Locate(pending_[i].second);
    order_[i] = static_cast<uint32_t>(i);
  }
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    const PackedObjectStore::Location& x = located_[a];
    const PackedObjectStore::Location& y = located_[b];
    if (x.partition != y.partition) return x.partition < y.partition;
    if (x.first_block != y.first_block) return x.first_block < y.first_block;
    return a < b;  // Pending order is ticket order.
  });
  pages_.Clear();
  outcome.completions.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = order_[k];
    const PackedObjectStore::Location& at = located_[i];
    LookupCompletion& c = outcome.completions[k];
    c.ticket = pending_[i].first;
    if (at.scan) pages_.DropBefore(at.partition, at.first_block);
    PackedObjectStore::LookupInfo info;
    const Status s =
        store_->LookupWith(&pages_, pending_[i].second, at, &c.values, &info);
    c.found = s.ok();
    c.error = !s.ok() && !s.IsNotFound();
    if (c.error) c.values.clear();
    c.pages = info.pages;
    c.partition = info.partition;
    c.first_block = info.first_block;
    outcome.uncoalesced_pages += info.pages;
  }
  pending_.clear();
  outcome.distinct_pages = pages_.pages_read();
  return outcome;
}

}  // namespace store
}  // namespace efind
