// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Packed object store build/lookup contract (DESIGN.md §13): every staged
// key is retrievable with its values in insertion order, absent keys are
// NotFound with honest page accounting, objects larger than a block span
// blocks and still resolve, a Build/Open round trip reproduces the exact
// store, rebuilding bumps the persisted version, and the batched lookup
// queue's flush outcome matches serial Gets and an independent linear
// decode of the data files (tests/reference_packed_lookup.h) while reading
// each distinct page once.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/durable.h"
#include "store/lookup_queue.h"
#include "store/packed_store.h"
#include "tests/reference_packed_lookup.h"

namespace efind {
namespace store {
namespace {

PackedStoreOptions SmallOptions(const std::string& dir) {
  PackedStoreOptions o;
  o.dir = dir;
  o.page_bytes = 256;  // Small pages force multi-block partitions.
  o.num_partitions = 4;
  o.num_nodes = 3;
  return o;
}

std::string TempDir(const char* leaf) {
  return ::testing::TempDir() + "efind_packed_store_" + leaf;
}

TEST(PackedStoreTest, BuildLookupAllKeys) {
  PackedStoreBuilder builder(SmallOptions(TempDir("all")));
  std::map<std::string, std::vector<IndexValue>> truth;
  for (int k = 0; k < 500; ++k) {
    const std::string key = "key" + std::to_string(k);
    IndexValue v("payload_" + std::to_string(k), k % 7);
    builder.Add(key, v);
    truth[key].push_back(v);
    if (k % 5 == 0) {  // Repeat keys append, in insertion order.
      IndexValue v2("second_" + std::to_string(k), 0);
      builder.Add(key, v2);
      truth[key].push_back(v2);
    }
  }
  std::string error;
  auto store = builder.Build(&error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->num_objects(), truth.size());
  EXPECT_GT(store->num_blocks(), 0u);

  for (const auto& [key, values] : truth) {
    std::vector<IndexValue> out;
    PackedObjectStore::LookupInfo info;
    ASSERT_TRUE(store->GetPaged(key, &out, &info).ok()) << key;
    EXPECT_EQ(out, values) << key;
    EXPECT_GE(info.pages, 1u) << key;
    EXPECT_GE(info.partition, 0) << key;
  }
  std::vector<IndexValue> out;
  PackedObjectStore::LookupInfo info;
  const Status miss = store->GetPaged("absent_key", &out, &info);
  EXPECT_TRUE(miss.IsNotFound());
  EXPECT_TRUE(out.empty());
}

TEST(PackedStoreTest, BlockStraddlingObjects) {
  PackedStoreBuilder builder(SmallOptions(TempDir("straddle")));
  // One object several times the 256-byte page, surrounded by small ones.
  const std::string giant(1500, 'G');
  builder.Add("giant", IndexValue(giant, 10));
  for (int k = 0; k < 100; ++k) {
    builder.Add("small" + std::to_string(k), IndexValue("v", 1));
  }
  std::string error;
  auto store = builder.Build(&error);
  ASSERT_NE(store, nullptr) << error;

  std::vector<IndexValue> out;
  PackedObjectStore::LookupInfo info;
  ASSERT_TRUE(store->GetPaged("giant", &out, &info).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data, giant);
  EXPECT_EQ(out[0].extra_bytes, 10u);
  // A 1500-byte object over 254-byte usable pages occupies > 5 pages.
  EXPECT_GT(info.pages, 5u);
  for (int k = 0; k < 100; ++k) {
    out.clear();
    ASSERT_TRUE(store->Get("small" + std::to_string(k), &out).ok()) << k;
    EXPECT_EQ(out, std::vector<IndexValue>{IndexValue("v", 1)});
  }
}

TEST(PackedStoreTest, BuildReloadRoundTrip) {
  const std::string dir = TempDir("reload");
  PackedStoreBuilder builder(SmallOptions(dir));
  for (int k = 0; k < 300; ++k) {
    builder.Add("k" + std::to_string(k),
                IndexValue("v" + std::to_string(k), k));
  }
  std::string error;
  auto built = builder.Build(&error);
  ASSERT_NE(built, nullptr) << error;

  auto reloaded = PackedObjectStore::Open(dir, &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(reloaded->num_objects(), built->num_objects());
  EXPECT_EQ(reloaded->num_blocks(), built->num_blocks());
  EXPECT_EQ(reloaded->version(), built->version());
  EXPECT_EQ(reloaded->page_bytes(), built->page_bytes());
  EXPECT_EQ(reloaded->index_bits(), built->index_bits());
  for (int k = 0; k < 300; ++k) {
    std::vector<IndexValue> a, b;
    PackedObjectStore::LookupInfo ia, ib;
    const std::string key = "k" + std::to_string(k);
    ASSERT_TRUE(built->GetPaged(key, &a, &ia).ok()) << key;
    ASSERT_TRUE(reloaded->GetPaged(key, &b, &ib).ok()) << key;
    EXPECT_EQ(a, b) << key;
    EXPECT_EQ(ia.pages, ib.pages) << key;
    EXPECT_EQ(ia.partition, ib.partition) << key;
  }
}

TEST(PackedStoreTest, RebuildBumpsVersion) {
  const std::string dir = TempDir("version");
  std::string error;
  uint64_t first = 0;
  {
    PackedStoreBuilder builder(SmallOptions(dir));
    builder.Add("k", IndexValue("v1", 0));
    auto store = builder.Build(&error);
    ASSERT_NE(store, nullptr) << error;
    first = store->version();
  }
  PackedStoreBuilder builder(SmallOptions(dir));
  builder.Add("k", IndexValue("v2", 0));
  auto rebuilt = builder.Build(&error);
  ASSERT_NE(rebuilt, nullptr) << error;
  EXPECT_EQ(rebuilt->version(), first + 1);
}

TEST(PackedStoreTest, FillDegreeAddsBlocks) {
  auto build = [&](double fill) {
    // Distinct dir per fill degree: the two stores must coexist.
    PackedStoreOptions o =
        SmallOptions(TempDir(fill == 1.0 ? "fill_full" : "fill_half"));
    o.fill = fill;
    PackedStoreBuilder builder(o);
    for (int k = 0; k < 400; ++k) {
      builder.Add("k" + std::to_string(k), IndexValue("value", 3));
    }
    std::string error;
    auto store = builder.Build(&error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  };
  auto full = build(1.0);
  auto half = build(0.5);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(half, nullptr);
  EXPECT_LT(half->usable_page_bytes(), full->usable_page_bytes());
  EXPECT_GT(half->num_blocks(), full->num_blocks());
  // Same content either way.
  for (int k = 0; k < 400; ++k) {
    std::vector<IndexValue> a, b;
    ASSERT_TRUE(full->Get("k" + std::to_string(k), &a).ok());
    ASSERT_TRUE(half->Get("k" + std::to_string(k), &b).ok());
    EXPECT_EQ(a, b);
  }
}

TEST(PackedStoreTest, RejectsInvalidOptions) {
  std::string reason;
  PackedStoreOptions bad = SmallOptions(TempDir("bad"));
  bad.page_bytes = 32;  // Below the 64-byte floor.
  EXPECT_FALSE(ValidatePackedStoreOptions(bad, &reason));
  EXPECT_FALSE(reason.empty());
  PackedStoreBuilder builder(bad);
  builder.Add("k", IndexValue("v", 0));
  std::string error;
  EXPECT_EQ(builder.Build(&error), nullptr);
  EXPECT_FALSE(error.empty());
}

/// Builds a store whose objects are random in size: most fit a 256-byte
/// page several times over, some straddle two or more blocks, and the fill
/// degree leaves slack in every page. Returns the keys staged.
std::unique_ptr<PackedObjectStore> BuildRandomStore(
    const std::string& dir, uint64_t seed, std::vector<std::string>* keys) {
  PackedStoreOptions o = SmallOptions(dir);
  o.fill = 0.7;
  o.bins_per_block = 4;
  PackedStoreBuilder builder(o);
  std::mt19937_64 rng(seed);
  for (int k = 0; k < 300; ++k) {
    const std::string key = "r" + std::to_string(rng() % 100000);
    const int values = 1 + static_cast<int>(rng() % 3);
    for (int v = 0; v < values; ++v) {
      // One value in eight is 200..599 bytes: longer than a page's 177
      // usable bytes, so its object straddles blocks.
      const uint64_t len =
          rng() % 8 == 0 ? 200 + rng() % 400 : rng() % 24;
      builder.Add(key, IndexValue(std::string(len, static_cast<char>(
                                                       'a' + rng() % 26)),
                                  rng() % 1000));
    }
    keys->push_back(key);
  }
  std::string error;
  auto store = builder.Build(&error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

ReferencePackedStore LoadReference(const PackedObjectStore& store) {
  ReferencePackedStore ref;
  std::string error;
  EXPECT_TRUE(ref.Load(store.options(), store.version(), &error)) << error;
  EXPECT_EQ(ref.usable_page_bytes(), store.usable_page_bytes());
  return ref;
}

/// Flushes `keys` through one queue and checks the outcome against serial
/// `GetPaged` and against the reference decoder: values and pages per
/// completion, completion order, the page totals, and a resubmission.
void CheckFlush(const PackedObjectStore& store,
                const std::vector<std::string>& keys) {
  const ReferencePackedStore ref = LoadReference(store);
  BatchedLookupQueue queue(&store);
  for (const std::string& key : keys) {
    queue.Submit(key);
  }
  EXPECT_EQ(queue.pending(), keys.size());
  const FlushOutcome outcome = queue.Flush();
  EXPECT_EQ(queue.pending(), 0u);
  ASSERT_EQ(outcome.completions.size(), keys.size());

  // Completions arrive sorted by (partition, first_block, ticket) and each
  // matches the serial Get and the reference for its submitted key.
  uint64_t sum_pages = 0;
  std::set<std::pair<int, uint64_t>> touched;
  const LookupCompletion* prev = nullptr;
  for (const LookupCompletion& c : outcome.completions) {
    ASSERT_LT(c.ticket, keys.size());
    const std::string& key = keys[c.ticket];
    std::vector<IndexValue> serial;
    PackedObjectStore::LookupInfo info;
    const Status st = store.GetPaged(key, &serial, &info);
    EXPECT_EQ(c.found, st.ok()) << key;
    EXPECT_FALSE(c.error) << key;
    EXPECT_EQ(c.values, serial) << key;
    EXPECT_EQ(c.pages, info.pages) << key;
    EXPECT_EQ(c.partition, info.partition) << key;
    const ReferenceLookup expected = ref.Lookup(key);
    EXPECT_EQ(c.found, expected.found) << key;
    EXPECT_EQ(c.values, expected.values) << key;
    EXPECT_EQ(c.partition, expected.partition) << key;
    EXPECT_EQ(c.pages, expected.pages.size()) << key;
    if (!expected.pages.empty()) {
      EXPECT_EQ(c.first_block, *expected.pages.begin()) << key;
    }
    for (const uint64_t page : expected.pages) {
      touched.emplace(expected.partition, page);
    }
    sum_pages += c.pages;
    if (prev != nullptr) {
      EXPECT_TRUE(std::tie(prev->partition, prev->first_block,
                           prev->ticket) <
                  std::tie(c.partition, c.first_block, c.ticket));
    }
    prev = &c;
  }
  EXPECT_EQ(outcome.uncoalesced_pages, sum_pages);
  // Each distinct page of the flush is read once.
  EXPECT_EQ(outcome.distinct_pages, touched.size());
  // Many lookups over a handful of 256-byte pages per partition must share.
  EXPECT_LT(outcome.distinct_pages, outcome.uncoalesced_pages);
  EXPECT_GT(outcome.distinct_pages, 0u);

  // Determinism: resubmitting the same multiset reproduces the outcome.
  for (const std::string& key : keys) queue.Submit(key);
  const FlushOutcome again = queue.Flush();
  ASSERT_EQ(again.completions.size(), outcome.completions.size());
  EXPECT_EQ(again.distinct_pages, outcome.distinct_pages);
  EXPECT_EQ(again.uncoalesced_pages, outcome.uncoalesced_pages);
  for (size_t i = 0; i < again.completions.size(); ++i) {
    // Tickets are absolute submission indices, monotone across flushes.
    EXPECT_EQ(again.completions[i].ticket,
              outcome.completions[i].ticket + keys.size());
    EXPECT_EQ(again.completions[i].values, outcome.completions[i].values);
    EXPECT_EQ(again.completions[i].pages, outcome.completions[i].pages);
  }
}

TEST(PackedStoreTest, BatchedFlushMatchesSerialAndCoalesces) {
  {
    PackedStoreBuilder builder(SmallOptions(TempDir("batch")));
    for (int k = 0; k < 400; ++k) {
      builder.Add("k" + std::to_string(k),
                  IndexValue("v" + std::to_string(k), k % 11));
    }
    std::string error;
    auto store = builder.Build(&error);
    ASSERT_NE(store, nullptr) << error;
    std::vector<std::string> keys;
    for (int k = 0; k < 64; ++k) {
      keys.push_back("k" + std::to_string(k * 5));  // 60 hits...
    }
    keys.push_back("absent1");  // ... plus misses ...
    keys.push_back("absent2");
    keys.push_back(keys[0]);    // ... and one duplicate key.
    CheckFlush(*store, keys);
  }
  {
    std::vector<std::string> staged;
    auto store = BuildRandomStore(TempDir("batch_random"), 17, &staged);
    ASSERT_NE(store, nullptr);
    std::vector<std::string> keys;
    std::mt19937_64 rng(29);
    for (int k = 0; k < 120; ++k) keys.push_back(staged[rng() % staged.size()]);
    for (int k = 0; k < 20; ++k) keys.push_back("r" + std::to_string(rng()));
    CheckFlush(*store, keys);
    // Every staged key, found with the reference's values.
    const ReferencePackedStore ref = LoadReference(*store);
    for (const std::string& key : ref.Keys()) {
      std::vector<IndexValue> out;
      ASSERT_TRUE(store->Get(key, &out).ok()) << key;
      EXPECT_EQ(out, ref.Lookup(key).values) << key;
    }
  }
}

// --- torn-state matrix (DESIGN.md §15) -------------------------------------
//
// Every persisted piece of a store — manifest, Elias-Fano sidecars, data
// files — is covered by a checksum (the manifest and sidecars by a durable
// footer, the data files by a whole-file digest recorded in their sidecar).
// A truncated or bit-flipped file must make `Open` fail loudly, naming the
// offending path; garbage is never served.

/// Builds a small store and returns its directory; `*version` gets the
/// live generation (for deriving part file names).
std::string BuildTornFixture(const char* leaf, uint64_t* version) {
  const std::string dir = TempDir(leaf);
  PackedStoreBuilder builder(SmallOptions(dir));
  for (int k = 0; k < 200; ++k) {
    builder.Add("k" + std::to_string(k), IndexValue("v" + std::to_string(k),
                                                    k));
  }
  std::string error;
  auto store = builder.Build(&error);
  EXPECT_NE(store, nullptr) << error;
  *version = store == nullptr ? 0 : store->version();
  return dir;
}

void RewriteRaw(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

enum class Corruption { kTruncateTail, kTruncateHalf, kBitflip };

void Corrupt(const std::string& path, Corruption how) {
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(path, &raw)) << path;
  ASSERT_GT(raw.size(), 20u) << path;
  switch (how) {
    case Corruption::kTruncateTail:
      raw.resize(raw.size() - 10);
      break;
    case Corruption::kTruncateHalf:
      raw.resize(raw.size() / 2);
      break;
    case Corruption::kBitflip:
      raw[raw.size() / 3] ^= 0x20;
      break;
  }
  RewriteRaw(path, raw);
}

/// `Open` must fail and the error must name the corrupted file.
void ExpectOpenFailsNaming(const std::string& dir, const std::string& path) {
  std::string error;
  auto reopened = PackedObjectStore::Open(dir, &error);
  EXPECT_EQ(reopened, nullptr) << "opened a corrupted store: " << path;
  EXPECT_NE(error.find(path), std::string::npos)
      << "error '" << error << "' does not name " << path;
}

TEST(PackedStoreTornTest, CorruptManifestFailsLoudly) {
  for (const Corruption how : {Corruption::kTruncateTail,
                               Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_manifest", &version);
    ASSERT_GT(version, 0u);
    const std::string manifest = dir + "/manifest.txt";
    Corrupt(manifest, how);
    ExpectOpenFailsNaming(dir, manifest);
  }
}

TEST(PackedStoreTornTest, CorruptSidecarFailsLoudly) {
  for (const Corruption how : {Corruption::kTruncateTail,
                               Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_sidecar", &version);
    ASSERT_GT(version, 0u);
    const std::string sidecar =
        dir + "/part0.g" + std::to_string(version) + ".idx";
    Corrupt(sidecar, how);
    ExpectOpenFailsNaming(dir, sidecar);
  }
}

TEST(PackedStoreTornTest, CorruptDataFileFailsLoudly) {
  // Data files carry no footer (pages must stay aligned); their integrity
  // is a whole-file digest in the sidecar, verified at Open.
  for (const Corruption how : {Corruption::kTruncateHalf,
                               Corruption::kBitflip}) {
    uint64_t version = 0;
    const std::string dir = BuildTornFixture("torn_data", &version);
    ASSERT_GT(version, 0u);
    const std::string data =
        dir + "/part0.g" + std::to_string(version) + ".dat";
    Corrupt(data, how);
    ExpectOpenFailsNaming(dir, data);
  }
}

TEST(PackedStoreTornTest, SidecarFromWrongGenerationRejected) {
  // A sidecar sealed under a different generation than the manifest names
  // must be rejected even though its own checksum verifies — the footer's
  // generation stamp is what proves the file belongs to this build wave.
  uint64_t version = 0;
  const std::string dir = BuildTornFixture("torn_gen", &version);
  ASSERT_GT(version, 0u);
  const std::string sidecar =
      dir + "/part1.g" + std::to_string(version) + ".idx";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(sidecar, &raw));
  uint64_t gen = 0;
  std::string_view body;
  ASSERT_TRUE(durable::CheckFooter(raw, &gen, &body).ok());
  ASSERT_EQ(gen, version);
  std::string reseal(body);
  durable::AppendFooter(&reseal, version + 7);
  RewriteRaw(sidecar, reseal);
  ExpectOpenFailsNaming(dir, sidecar);
}

TEST(PackedStoreTornTest, RebuildCollectsStaleGenerationFiles) {
  uint64_t v1 = 0;
  const std::string dir = BuildTornFixture("torn_gc", &v1);
  ASSERT_GT(v1, 0u);
  // Rebuild: the new generation's build must GC the old part files (a
  // crashed build's debris must not accumulate, and stale data must not
  // linger to be confused for live).
  PackedStoreBuilder builder(SmallOptions(dir));
  builder.Add("fresh", IndexValue("new", 1));
  std::string error;
  auto rebuilt = builder.Build(&error);
  ASSERT_NE(rebuilt, nullptr) << error;
  EXPECT_GT(rebuilt->version(), v1);
  std::string raw;
  EXPECT_FALSE(durable::ReadFileContents(
      dir + "/part0.g" + std::to_string(v1) + ".dat", &raw));
  EXPECT_FALSE(durable::ReadFileContents(
      dir + "/part0.g" + std::to_string(v1) + ".idx", &raw));
}

TEST(PackedStoreTornTest, TruncatedPageIsDataLossAtRead) {
  // Truncation *after* Open (a lying disk mid-run): the page read itself
  // must surface DataLoss naming the page, never return stale bytes.
  uint64_t version = 0;
  const std::string dir = BuildTornFixture("torn_page", &version);
  std::string error;
  auto store = PackedObjectStore::Open(dir, &error);
  ASSERT_NE(store, nullptr) << error;
  // Chop the mapped data file of partition 0 under the open store.
  const std::string data =
      dir + "/part0.g" + std::to_string(version) + ".dat";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(data, &raw));
  ASSERT_GE(store->num_partition_blocks(0), 1u);
  RewriteRaw(data, raw.substr(0, store->page_bytes() / 2));
  std::vector<char> page(store->page_bytes());
  const Status s = store->ReadPage(
      0, store->num_partition_blocks(0) - 1, page.data());
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("truncated page"), std::string::npos);
}

TEST(PackedStoreTornTest, TruncatedPagesFailOnlyTheirLookupsInAFlush) {
  // Truncation under an open store, seen through a batched flush: a lookup
  // that needs a page past the cut completes with `error`, every other
  // lookup is served, and `distinct_pages` counts only the pages read
  // successfully. A failed page is never cached, so a second lookup of a
  // lost page fails as well instead of decoding a stale buffer.
  std::vector<std::string> staged;
  auto store = BuildRandomStore(TempDir("torn_flush"), 41, &staged);
  ASSERT_NE(store, nullptr);
  const ReferencePackedStore ref = LoadReference(*store);
  const int victim = 0;
  const uint64_t blocks = store->num_partition_blocks(victim);
  ASSERT_GE(blocks, 4u);
  const uint64_t cut = blocks / 2;
  const std::string data = store->options().dir + "/part" +
                           std::to_string(victim) + ".g" +
                           std::to_string(store->version()) + ".dat";
  std::string raw;
  ASSERT_TRUE(durable::ReadFileContents(data, &raw));
  RewriteRaw(data, raw.substr(0, cut * store->page_bytes()));

  // Every staged key twice: both sides of the cut, each lost page asked
  // for by more than one lookup, and the other partitions untouched.
  std::vector<std::string> keys = ref.Keys();
  const size_t distinct_keys = keys.size();
  for (size_t i = 0; i < distinct_keys; ++i) keys.push_back(keys[i]);
  BatchedLookupQueue queue(store.get());
  for (const std::string& key : keys) queue.Submit(key);
  const FlushOutcome outcome = queue.Flush();
  ASSERT_EQ(outcome.completions.size(), keys.size());

  size_t failed = 0;
  size_t served_in_victim = 0;
  std::set<std::pair<int, uint64_t>> read_ok;
  for (const LookupCompletion& c : outcome.completions) {
    const std::string& key = keys[c.ticket];
    const ReferenceLookup expected = ref.Lookup(key);
    const bool lost = expected.partition == victim &&
                      !expected.pages.empty() &&
                      *expected.pages.rbegin() >= cut;
    EXPECT_EQ(c.error, lost) << key;
    for (const uint64_t page : expected.pages) {
      if (expected.partition != victim || page < cut) {
        read_ok.emplace(expected.partition, page);
      }
    }
    if (lost) {
      ++failed;
      EXPECT_FALSE(c.found) << key;
      EXPECT_TRUE(c.values.empty()) << key;
      continue;
    }
    if (expected.partition == victim) ++served_in_victim;
    EXPECT_TRUE(c.found) << key;
    EXPECT_EQ(c.values, expected.values) << key;
    EXPECT_EQ(c.pages, expected.pages.size()) << key;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(served_in_victim, 0u);
  EXPECT_EQ(outcome.distinct_pages, read_ok.size());
}

TEST(PackedStoreTornTest, MutatedPagesFailSafeThroughFlushAndGet) {
  // Seeded byte flips in the object headers (hash, key and payload
  // lengths) and page trailers of a data file under an open store. Lookups
  // decode in place from the page buffers, so every length they read must
  // be bounded by the data file: each flush and each Get completes with a
  // status, and the two agree, since they decode the same bytes.
  std::vector<std::string> staged;
  auto store = BuildRandomStore(TempDir("mutate"), 53, &staged);
  ASSERT_NE(store, nullptr);
  const ReferencePackedStore ref = LoadReference(*store);
  const int victim = 1;
  const uint64_t page_bytes = store->page_bytes();
  const uint64_t blocks = store->num_partition_blocks(victim);
  const std::vector<uint64_t> headers = ref.HeaderOffsets(victim);
  ASSERT_GE(blocks, 2u);
  ASSERT_FALSE(headers.empty());
  const std::string data = store->options().dir + "/part" +
                           std::to_string(victim) + ".g" +
                           std::to_string(store->version()) + ".dat";
  std::string pristine;
  ASSERT_TRUE(durable::ReadFileContents(data, &pristine));
  std::vector<std::string> keys = ref.Keys();
  keys.push_back("absent1");
  keys.push_back("absent2");

  std::mt19937_64 rng(61);
  size_t failed = 0;
  size_t found = 0;
  for (int round = 0; round < 150; ++round) {
    std::string raw = pristine;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const uint64_t header = headers[rng() % headers.size()];
      uint64_t at = 0;
      switch (rng() % 3) {
        case 0:  // Any header byte: the hash steers the bin-ordered scan.
          at = ref.FileOffset(header + rng() % 16);
          break;
        case 1:  // A key or payload length byte, high bytes included.
          at = ref.FileOffset(header + 8 + rng() % 8);
          break;
        default:  // A page trailer byte.
          at = (rng() % blocks) * page_bytes + page_bytes - 2 + rng() % 2;
          break;
      }
      raw[at] = static_cast<char>(raw[at] ^ (1 + rng() % 255));
    }
    RewriteRaw(data, raw);

    BatchedLookupQueue queue(store.get());
    for (const std::string& key : keys) queue.Submit(key);
    const FlushOutcome outcome = queue.Flush();
    ASSERT_EQ(outcome.completions.size(), keys.size());
    for (const LookupCompletion& c : outcome.completions) {
      const std::string& key = keys[c.ticket];
      std::vector<IndexValue> serial;
      const Status st = store->Get(key, &serial);
      EXPECT_EQ(c.found, st.ok()) << "round " << round << " " << key;
      EXPECT_EQ(c.error, !st.ok() && !st.IsNotFound())
          << "round " << round << " " << key << ": " << st.ToString();
      if (c.found) {
        EXPECT_EQ(c.values, serial) << key;
        ++found;
      }
      if (c.error) {
        EXPECT_TRUE(c.values.empty()) << key;
        ++failed;
      }
    }
  }
  RewriteRaw(data, pristine);
  // The flips both broke lookups and left others served.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace store
}  // namespace efind
