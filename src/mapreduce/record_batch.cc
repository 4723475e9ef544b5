// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "mapreduce/record_batch.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

namespace efind {
namespace {

const std::shared_ptr<const RecordAttachment> kNoAttachment;

}  // namespace

void RecordBatch::Reserve(size_t records, size_t bytes) {
  if (records > entries_cap_) GrowEntries(records);
  if (bytes > buf_cap_) EnsureRoom(bytes - buf_size_);
}

void RecordBatch::GrowEntries(size_t min_cap) {
  size_t cap = std::max<size_t>(min_cap, 16);
  cap = std::max(cap, entries_cap_ * 2);
  if (arena_ != nullptr) {
    Entry* grown = static_cast<Entry*>(
        arena_->Allocate(cap * sizeof(Entry), alignof(Entry)));
    if (entries_size_ > 0) {
      std::memcpy(grown, entries_, entries_size_ * sizeof(Entry));
    }
    entries_ = grown;
  } else {
    auto grown = std::make_unique<Entry[]>(cap);
    ++heap_allocations_;
    if (entries_size_ > 0) {
      std::memcpy(grown.get(), entries_, entries_size_ * sizeof(Entry));
    }
    entries_owned_ = std::move(grown);
    entries_ = entries_owned_.get();
  }
  entries_cap_ = cap;
}

char* RecordBatch::EnsureRoom(size_t bytes) {
  if (buf_size_ + bytes > buf_cap_) {
    size_t cap = std::max<size_t>(buf_cap_ * 2, 4096);
    cap = std::max(cap, buf_size_ + bytes);
    if (arena_ != nullptr) {
      // The old slice is abandoned to the arena's bulk free.
      char* grown = arena_->AllocateBytes(cap);
      if (buf_size_ > 0) std::memcpy(grown, buf_, buf_size_);
      buf_ = grown;
    } else {
      auto grown = std::make_unique_for_overwrite<char[]>(cap);
      ++heap_allocations_;
      if (buf_size_ > 0) std::memcpy(grown.get(), buf_, buf_size_);
      owned_ = std::move(grown);
      buf_ = owned_.get();
    }
    buf_cap_ = cap;
  }
  return buf_ + buf_size_;
}

void RecordBatch::Append(std::string_view key, std::string_view value,
                         uint64_t extra_bytes,
                         std::shared_ptr<const RecordAttachment> attachment,
                         uint64_t key_hash) {
  char* dst = EnsureRoom(key.size() + value.size());
  if (!key.empty()) std::memcpy(dst, key.data(), key.size());
  if (!value.empty()) std::memcpy(dst + key.size(), value.data(), value.size());

  Entry e;
  e.key_off = buf_size_;
  e.key_len = static_cast<uint32_t>(key.size());
  e.value_len = static_cast<uint32_t>(value.size());
  e.key_hash = key_hash;
  e.extra_bytes = extra_bytes;
  e.logical_bytes = key.size() + value.size() + extra_bytes;
  if (attachment) {
    e.logical_bytes += attachment->size_bytes();
    e.attach = static_cast<int32_t>(attachments_.size());
    ReserveAttachmentSlot();
    attachments_.push_back(std::move(attachment));
  }
  buf_size_ += key.size() + value.size();
  payload_bytes_ += e.logical_bytes;
  EnsureEntryRoom();
  entries_[entries_size_++] = e;
}

void RecordBatch::AppendFrom(const RecordBatch& other, size_t i) {
  const Entry& src = other.entries_[i];
  char* dst = EnsureRoom(src.key_len + src.value_len);
  std::memcpy(dst, other.buf_ + src.key_off, src.key_len + src.value_len);

  Entry e = src;
  e.key_off = buf_size_;
  if (src.attach >= 0) {
    e.attach = static_cast<int32_t>(attachments_.size());
    ReserveAttachmentSlot();
    attachments_.push_back(other.attachments_[src.attach]);
  }
  buf_size_ += src.key_len + src.value_len;
  payload_bytes_ += e.logical_bytes;
  EnsureEntryRoom();
  entries_[entries_size_++] = e;
}

const std::shared_ptr<const RecordAttachment>& RecordBatch::AttachmentAt(
    size_t i) const {
  const Entry& e = entries_[i];
  return e.attach >= 0 ? attachments_[e.attach] : kNoAttachment;
}

RecordBatch::View RecordBatch::at(size_t i) const {
  const Entry& e = entries_[i];
  View v;
  v.key = std::string_view(buf_ + e.key_off, e.key_len);
  v.value = std::string_view(buf_ + e.key_off + e.key_len, e.value_len);
  v.extra_bytes = e.extra_bytes;
  v.attachment = &AttachmentAt(i);
  v.logical_bytes = e.logical_bytes;
  return v;
}

Record RecordBatch::MaterializeRecord(size_t i) const {
  const Entry& e = entries_[i];
  Record r(std::string(KeyAt(i)), std::string(ValueAt(i)), e.extra_bytes);
  if (e.attach >= 0) r.attachment = attachments_[e.attach];
  return r;
}

std::vector<Record> RecordBatch::ToRecords() const {
  std::vector<Record> out;
  out.reserve(entries_size_);
  for (size_t i = 0; i < entries_size_; ++i) {
    out.push_back(MaterializeRecord(i));
  }
  return out;
}

RecordBatch RecordBatch::FromRecords(const std::vector<Record>& records,
                                     Arena* arena) {
  RecordBatch batch(arena);
  size_t bytes = 0;
  for (const Record& r : records) bytes += r.key.size() + r.value.size();
  batch.Reserve(records.size(), bytes);
  for (const Record& r : records) batch.Append(r);
  return batch;
}

uint64_t RecordBatch::ContentChecksum(uint64_t seed) const {
  Checksum64 sum(seed);
  for (size_t i = 0; i < entries_size_; ++i) {
    ChecksumRecord(&sum, KeyAt(i), ValueAt(i), entries_[i].extra_bytes);
  }
  return sum.Digest();
}

void RecordBatch::Clear() {
  entries_size_ = 0;
  attachments_.clear();
  buf_size_ = 0;
  payload_bytes_ = 0;
}

}  // namespace efind
