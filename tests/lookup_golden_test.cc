// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Byte-level pin of the lookup layer (DESIGN.md §7, §8, §10, §13). Every
// per-lookup charge — the error counter, the service, failover, local and
// remote legs, the lookup counter and statistics, the latency histogram —
// and every span and instant the two lookup stages emit shows up in one of
// three digests per run:
//
//  - the run: outputs (with order), simulated seconds, plan, counters, job
//    summaries and operator statistics;
//  - the exported Chrome trace;
//  - the JSON run report (counters, gauges, histogram buckets and sums).
//
// The matrix covers an in-memory KV index and the packed store at batch
// depths 1 and 16; the baseline, cache, re-partitioning and index-locality
// strategies plus the adaptive runtime; a healthy cluster, the §7 fault
// matrix and the §10 service faults (hedging, breakers, flaky errors,
// corruption); threads 1 and 4. The join's records carry zero, one or two
// keys, so grouped lookups, grouped pass-through records and multi-key
// inline records all occur, and some keys fail with a lookup error. The
// constants were taken on the engine whose lookup stages kept a serial
// driver beside the batched one.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "efind/accessors/accessors.h"
#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "store/packed_store.h"
#include "tests/run_digest.h"
#include "workloads/synthetic.h"

namespace efind {
namespace {

constexpr uint64_t kDistinctKeys = 300;

uint64_t KeyNumber(const std::string& key) {
  return key.size() > 1 ? std::stoull(key.substr(1)) : 0;
}

// Lookups of these keys fail (a non-NotFound error) on every backend.
bool InjectedError(const std::string& ik) { return KeyNumber(ik) % 13 == 4; }

/// Joins each record with every key it extracted: records whose key number
/// is 0 mod 6 extract none, 1 mod 6 extract two (the second sometimes past
/// the index's key range, so NotFound), the rest extract their own key.
class MixedKeyJoin : public IndexOperator {
 public:
  std::string name() const override { return "mixed_key_join"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    const uint64_t n = KeyNumber(record->key);
    if (n % 6 == 0) return;
    (*keys)[0].push_back(record->key);
    if (n % 6 == 1) {
      (*keys)[0].push_back("k" +
                           std::to_string((n * 7 + 3) % (kDistinctKeys + 60)));
    }
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    std::string joined = record.value;
    for (const auto& values : results[0]) {
      joined += values.empty() ? "|-" : "|" + values[0].data;
    }
    out->Emit(Record(record.key, joined, record.extra_bytes));
  }
};

/// An in-memory accessor whose lookups of `InjectedError` keys fail after
/// appending their values (the stage must drop them).
class FailingKvAccessor : public IndexAccessor {
 public:
  explicit FailingKvAccessor(const KvStore* store) : inner_("golden", store) {}
  std::string name() const override { return inner_.name(); }
  Status Lookup(const std::string& ik, std::vector<IndexValue>* out) override {
    const Status status = inner_.Lookup(ik, out);
    return InjectedError(ik) ? Status::Internal("injected") : status;
  }
  double ServiceSeconds(uint64_t bytes) const override {
    return inner_.ServiceSeconds(bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return inner_.partition_scheme();
  }

 private:
  KvIndexAccessor inner_;
};

/// The packed-store accessor with the same injected errors, reported as
/// failed completions at flush.
class FailingStoreAccessor : public IndexAccessor, public BatchedLookupIndex {
 public:
  explicit FailingStoreAccessor(const store::PackedObjectStore* store)
      : inner_("golden", store) {}
  std::string name() const override { return inner_.name(); }
  Status Lookup(const std::string& ik, std::vector<IndexValue>* out) override {
    const Status status = inner_.Lookup(ik, out);
    return InjectedError(ik) ? Status::Internal("injected") : status;
  }
  double ServiceSeconds(uint64_t bytes) const override {
    return inner_.ServiceSeconds(bytes);
  }
  const PartitionScheme* partition_scheme() const override {
    return inner_.partition_scheme();
  }
  std::unique_ptr<BatchedLookupHandle> NewBatch() const override {
    return std::make_unique<Handle>(inner_.NewBatch());
  }

 private:
  class Handle : public BatchedLookupHandle {
   public:
    explicit Handle(std::unique_ptr<BatchedLookupHandle> inner)
        : inner_(std::move(inner)) {}
    uint64_t Submit(const std::string& ik) override {
      keys_.push_back(ik);
      return inner_->Submit(ik);
    }
    size_t pending() const override { return inner_->pending(); }
    BatchedLookupOutcome Flush() override {
      BatchedLookupOutcome outcome = inner_->Flush();
      for (auto& c : outcome.completions) {
        if (InjectedError(keys_[c.ticket - base_])) {
          c.error = true;
          c.found = false;
          c.values.clear();
        }
      }
      base_ += keys_.size();
      keys_.clear();
      return outcome;
    }

   private:
    std::unique_ptr<BatchedLookupHandle> inner_;
    std::vector<std::string> keys_;  // Ticket order since the last flush.
    uint64_t base_ = 0;
  };

  PackedStoreAccessor inner_;
};

enum class Backend { kKv, kStoreDepth1, kStoreDepth16 };
enum class Scenario { kHealthy, kFaults, kResilience };

const char* ToString(Backend b) {
  switch (b) {
    case Backend::kKv:
      return "kv";
    case Backend::kStoreDepth1:
      return "store_d1";
    case Backend::kStoreDepth16:
      return "store_d16";
  }
  return "?";
}

const char* ToString(Scenario s) {
  switch (s) {
    case Scenario::kHealthy:
      return "healthy";
    case Scenario::kFaults:
      return "faults";
    case Scenario::kResilience:
      return "resilience";
  }
  return "?";
}

ClusterConfig MakeConfig(Backend backend, Scenario scenario) {
  ClusterConfig config;
  config.store_batch_depth = backend == Backend::kStoreDepth1 ? 1 : 16;
  config.lookup_retry_backoff_sec = 1e-3;
  config.fault_seed = 7;
  if (scenario == Scenario::kHealthy) return config;
  // §7: task failures, stragglers, speculation, down and degraded hosts.
  config.task_failure_rate = 0.08;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.host_downtimes.push_back({3});
  config.host_downtimes.push_back({7, 0.0, 0.002});
  config.degraded_hosts.push_back(5);
  if (scenario == Scenario::kResilience) {
    // §10 on top: latency spikes with hedging, flaky errors, corruption,
    // circuit breakers.
    config.lookup_latency_spike_rate = 0.08;
    config.lookup_latency_spike_factor = 10.0;
    config.lookup_flaky_rate = 0.2;
    config.lookup_corrupt_rate = 0.05;
    config.hedged_lookups = true;
    config.hedge_quantile = 0.9;
    config.breaker_failure_threshold = 2;
    config.breaker_open_lookups = 8;
  }
  const char* why = nullptr;
  EXPECT_TRUE(ValidateClusterConfig(config, &why)) << why;
  return config;
}

/// The index contents and input shared by every case: the KV store and the
/// packed store hold the same values.
struct World {
  World() {
    syn.num_records = 960;
    syn.num_distinct_keys = kDistinctKeys;
    syn.num_splits = 48;
    syn.record_value_bytes = 100;
    syn.index_value_bytes = 120;
    KvStoreOptions kv_options;
    kv_options.num_nodes = ClusterConfig{}.num_nodes;
    kv = std::make_unique<KvStore>(kv_options);
    LoadSyntheticIndex(syn, kv.get());
    // Per process: ctest runs the cases of this binary concurrently.
    dir = ::testing::TempDir() + "efind_lookup_golden_" +
          std::to_string(::getpid());
    store::PackedStoreOptions o;
    o.dir = dir;
    store::PackedStoreBuilder builder(o);
    LoadSyntheticStoreIndex(syn, &builder);
    std::string error;
    packed = builder.Build(&error);
    EXPECT_NE(packed, nullptr) << error;
    input = GenerateSynthetic(syn, ClusterConfig{}.num_nodes);
  }

  IndexJobConf Job(Backend backend) const {
    IndexJobConf conf;
    conf.set_name("lookup_golden");
    auto op = std::make_shared<MixedKeyJoin>();
    if (backend == Backend::kKv) {
      op->AddIndex(std::make_shared<FailingKvAccessor>(kv.get()));
    } else {
      op->AddIndex(std::make_shared<FailingStoreAccessor>(packed.get()));
    }
    conf.AddHeadIndexOperator(op);
    return conf;
  }

  ~World() {
    packed.reset();
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  SyntheticOptions syn;
  std::unique_ptr<KvStore> kv;
  std::unique_ptr<store::PackedObjectStore> packed;
  std::vector<InputSplit> input;
};

const World& SharedWorld() {
  static const World world;
  return world;
}

struct GoldenCase {
  std::string name;
  uint64_t run;
  uint64_t trace;
  uint64_t report;
};

uint64_t DigestOfString(const std::string& s) {
  testing_util::Digest d;
  d.Str(s);
  return d.value();
}

/// Runs one entry point observed, returning its three digests.
template <typename RunFn>
GoldenCase Observe(const std::string& name, const ClusterConfig& config,
                   int threads, RunFn run) {
  obs::ObsSession session;
  EFindOptions options;
  options.cache_capacity = 64;
  options.threads = threads;
  EFindJobRunner runner(config, options);
  runner.set_obs(&session);
  const EFindRunResult r = run(runner);
  obs::RunReportInput report;
  report.name = name;
  report.sim_seconds = r.sim_seconds;
  report.plan = r.plan.ToString();
  report.replanned = r.replanned;
  report.counters = &r.counters;
  report.metrics = &session.metrics();
  report.trace = &session.trace();
  return {name, testing_util::DigestOf(r),
          DigestOfString(obs::ChromeTraceJson(session.trace(),
                                              config.num_nodes)),
          DigestOfString(obs::RunReportJson(report))};
}

std::vector<GoldenCase> RunCases(Backend backend, Scenario scenario,
                                 int threads) {
  const World& world = SharedWorld();
  const IndexJobConf conf = world.Job(backend);
  const ClusterConfig config = MakeConfig(backend, scenario);
  const std::string prefix =
      std::string(ToString(backend)) + "/" + ToString(scenario) + "/";
  std::vector<GoldenCase> out;
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    out.push_back(Observe(prefix + ToString(s), config, threads,
                          [&](EFindJobRunner& runner) {
                            return runner.RunWithStrategy(conf, world.input,
                                                          s);
                          }));
  }
  out.push_back(Observe(prefix + "dynamic", config, threads,
                        [&](EFindJobRunner& runner) {
                          return runner.RunDynamic(conf, world.input);
                        }));
  return out;
}

std::string Describe(const std::vector<GoldenCase>& cases) {
  std::string s;
  char buf[160];
  for (const auto& c : cases) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\",\n"
                  "     0x%016llxull, 0x%016llxull, 0x%016llxull},\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.run),
                  static_cast<unsigned long long>(c.trace),
                  static_cast<unsigned long long>(c.report));
    s += buf;
  }
  return s;
}

const std::vector<GoldenCase>& Goldens() {
  static const std::vector<GoldenCase> kGoldens = {
    {"kv/healthy/base",
     0x218ae1e80484f75aull, 0xee783cc8f623e077ull, 0x152ed060eabbebd2ull},
    {"kv/healthy/cache",
     0xadfdece08385d7f3ull, 0xec454986ed46a2a4ull, 0x506d2d286740271dull},
    {"kv/healthy/repart",
     0x6ccc0053bdd62736ull, 0x17e20ada03dff0a4ull, 0x8e7e170d5ffb36bbull},
    {"kv/healthy/idxloc",
     0xef4ee910df39eb49ull, 0xec3446772c734fccull, 0x463e52942118c599ull},
    {"kv/healthy/dynamic",
     0xcf330d94957fd640ull, 0xad574f8da0689b2dull, 0xa9394ea5f68f8e96ull},
    {"kv/faults/base",
     0x9e30e245c2692d46ull, 0x847e7b51ed179d4full, 0x199b32e6c8ecaf91ull},
    {"kv/faults/cache",
     0xf3dadf216b1ee3afull, 0xdf5928fa6ea941f2ull, 0x6703e47f56574876ull},
    {"kv/faults/repart",
     0xdc764050d69f98adull, 0x4dcb6c789c199753ull, 0x7dcdb055b8007f79ull},
    {"kv/faults/idxloc",
     0x8c5925e6be64eb85ull, 0x44a6bd0531f2776bull, 0xbe6f82fc36fe963cull},
    {"kv/faults/dynamic",
     0xeda45953bc2a00a4ull, 0xb2548a4e26b5f3f4ull, 0x38f0d05b4c9ce2efull},
    {"kv/resilience/base",
     0x48a76e48b286950cull, 0xcb9f7c24a37f8667ull, 0xbe85b373df460e8cull},
    {"kv/resilience/cache",
     0x150430b6bd1cf8f5ull, 0xd6a86108182189d8ull, 0x50dac53514cb6d16ull},
    {"kv/resilience/repart",
     0x273fe88ff96a201full, 0x92941783b89379caull, 0x9ae7ccd6302cd336ull},
    {"kv/resilience/idxloc",
     0xa292da1c13d0efcfull, 0x9a0e6d5142093181ull, 0x0a9ad07b8b95a450ull},
    {"kv/resilience/dynamic",
     0x62784ff740c485aeull, 0x125dca2c543bd98full, 0xd266e97121ba16e8ull},
    {"store_d1/healthy/base",
     0xa9ac14c71ec69e7cull, 0xa0f4879c1cb1ef8cull, 0xd11fb8d15241257dull},
    {"store_d1/healthy/cache",
     0x90ec622529d7def8ull, 0x82c87d1872883cf4ull, 0xfd58985869743c7bull},
    {"store_d1/healthy/repart",
     0xa7fb4f3b350419f2ull, 0x9a9d734cc82569ffull, 0x537c03c43306ed94ull},
    {"store_d1/healthy/idxloc",
     0xb46add6951805b97ull, 0xd582fdba3a53922eull, 0x3e6af39f685b6cd9ull},
    {"store_d1/healthy/dynamic",
     0xf0831ac020819030ull, 0xeec4e9647bea097bull, 0x7045b8375f300887ull},
    {"store_d1/faults/base",
     0xf8f87eabb83c3150ull, 0x7c5bdc92b8cd32f8ull, 0x386953a398f2fc0bull},
    {"store_d1/faults/cache",
     0xaccb5d023dc38ebbull, 0x3a79c82935eba895ull, 0xbf5c075fee555f5bull},
    {"store_d1/faults/repart",
     0xfc3422856de215c4ull, 0x09c0476f5d02b4a7ull, 0x61d968db7df8bce0ull},
    {"store_d1/faults/idxloc",
     0xcab4d6399d26a4f7ull, 0xbc475c33691608dbull, 0x008f310998074710ull},
    {"store_d1/faults/dynamic",
     0x8caccf0b08da4be4ull, 0xa9d965e578b27061ull, 0xa247ddd8cd2e0391ull},
    {"store_d1/resilience/base",
     0xa3a9441fb8f25b79ull, 0xdee3744564cc4f0bull, 0x0d7ec2d6b6a11aadull},
    {"store_d1/resilience/cache",
     0x9bb2e8166eee8ad0ull, 0xfbcdf914c4000b49ull, 0x90a655a079e09babull},
    {"store_d1/resilience/repart",
     0x85a183ae06d27775ull, 0xe628ef6fa317c850ull, 0xdbd0bd83f35efa62ull},
    {"store_d1/resilience/idxloc",
     0x1968a22977631118ull, 0x5b2bc12598f86e4cull, 0xb03a8d60ef553c0aull},
    {"store_d1/resilience/dynamic",
     0xeb461de266a2d2c5ull, 0x1b2218d3fc2065c3ull, 0x44aed4406f7b2a43ull},
    {"store_d16/healthy/base",
     0x99bb6fe81d085e0dull, 0xd63802beba295c48ull, 0xcb03f339b1a65577ull},
    {"store_d16/healthy/cache",
     0x371ea78c116dbd2aull, 0x719a31fbcbdabb1cull, 0x4c81d17c87014bccull},
    {"store_d16/healthy/repart",
     0xab42671a49c95e6aull, 0xe5215b2000cff5c2ull, 0x0d80f4877f3dffa7ull},
    {"store_d16/healthy/idxloc",
     0x81738d3cb4983ae6ull, 0x0227716be8006271ull, 0x222273c6dccbcf5dull},
    {"store_d16/healthy/dynamic",
     0xdebe9a757cfe6e23ull, 0x70988df7a335086cull, 0xa99b7faf1dafd8a1ull},
    {"store_d16/faults/base",
     0x5cd6de3884c4eb7cull, 0xf8f682924cd9cc44ull, 0x2e22c944b4b117baull},
    {"store_d16/faults/cache",
     0xf3b427b8604500c0ull, 0xccdad41b2a303949ull, 0xe19f5cefae94e498ull},
    {"store_d16/faults/repart",
     0xa087875e06a2f688ull, 0xd347e8267eae6537ull, 0x5e83e7014eec79a9ull},
    {"store_d16/faults/idxloc",
     0x8736b7b1ffce689full, 0xee282726819d7cc1ull, 0x20a9a205811a2836ull},
    {"store_d16/faults/dynamic",
     0xefe8215ba4c8a48aull, 0x4b0cef4fc1839acfull, 0x0fb60cc762d21b26ull},
    {"store_d16/resilience/base",
     0x0115a33b8786d5ecull, 0xb844543b2a3e8270ull, 0x0253922c218b2a0eull},
    {"store_d16/resilience/cache",
     0x8909ca90853d0134ull, 0x8a1cc94fdb9cb3eaull, 0x7e2d66f286031df0ull},
    {"store_d16/resilience/repart",
     0xd7b9027638303612ull, 0x48df5825630da396ull, 0xf4582d1057785b58ull},
    {"store_d16/resilience/idxloc",
     0xd836576773960b9cull, 0x8d98f50ff30f6b8aull, 0xc54c8dae5ec0f462ull},
    {"store_d16/resilience/dynamic",
     0x9b0f2cc5e10700d6ull, 0x901cf1273e3d9558ull, 0x364e8bf20481c5e2ull},
  };
  return kGoldens;
}

const GoldenCase* FindGolden(const std::string& name) {
  for (const auto& g : Goldens()) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

using MatrixParams = std::tuple<Backend, Scenario>;

class LookupGoldenTest : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(LookupGoldenTest, RunTraceAndReportMatchGolden) {
  const auto [backend, scenario] = GetParam();
  ASSERT_NE(SharedWorld().packed, nullptr);
  for (int threads : {1, 4}) {
    const std::vector<GoldenCase> actual = RunCases(backend, scenario, threads);
    const std::string at = " threads=" + std::to_string(threads);
    for (const GoldenCase& c : actual) {
      const GoldenCase* g = FindGolden(c.name);
      ASSERT_NE(g, nullptr) << c.name << " has no golden; actual:\n"
                            << Describe(actual);
      EXPECT_EQ(c.run, g->run) << c.name << at << " (run)\n"
                               << Describe(actual);
      EXPECT_EQ(c.trace, g->trace) << c.name << at << " (trace)";
      EXPECT_EQ(c.report, g->report) << c.name << at << " (report)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LookupGoldenTest,
    ::testing::Combine(::testing::Values(Backend::kKv, Backend::kStoreDepth1,
                                         Backend::kStoreDepth16),
                       ::testing::Values(Scenario::kHealthy, Scenario::kFaults,
                                         Scenario::kResilience)),
    [](const ::testing::TestParamInfo<MatrixParams>& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             ToString(std::get<1>(info.param));
    });

// The matrix reaches what the digests are meant to pin: lookup errors,
// grouped reuse, pass-through records, cache hits, store batches, and
// every failover and §10 resilience branch.
TEST(LookupGoldenCoverageTest, MatrixReachesEveryChargeBranch) {
  const World& world = SharedWorld();
  ASSERT_NE(world.packed, nullptr);
  for (Backend b : {Backend::kKv, Backend::kStoreDepth16}) {
    const IndexJobConf conf = world.Job(b);
    EFindOptions options;
    options.cache_capacity = 64;
    options.threads = 1;
    EFindJobRunner runner(MakeConfig(b, Scenario::kResilience), options);
    const Counters cache =
        runner.RunWithStrategy(conf, world.input, Strategy::kLookupCache)
            .counters;
    const Counters repart =
        runner.RunWithStrategy(conf, world.input, Strategy::kRepartition)
            .counters;
    const std::string what = ToString(b);
    EXPECT_GT(cache.Get("efind.h0.idx0.cache_hits"), 0.0) << what;
    EXPECT_GT(repart.Get("efind.h0.idx0.lookup_reuses"), 0.0) << what;
    EXPECT_GT(repart.Get("efind.h0.shuffle_skipped"), 0.0) << what;
    for (const Counters* c : {&cache, &repart}) {
      for (const char* name :
           {"lookup_errors", "lookup_failovers", "hedges", "flaky_retries",
            "corrupt_detected", "breaker_transitions"}) {
        EXPECT_GT(c->Get(std::string("efind.h0.idx0.") + name), 0.0)
            << what << " " << name;
      }
      EXPECT_EQ(c->Get("efind.store.batched_lookups") > 0.0,
                b != Backend::kKv)
          << what;
    }
  }
}

}  // namespace
}  // namespace efind
