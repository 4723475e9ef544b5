// Determinism of the parallel execution engine: the simulated results —
// outputs (including order), simulated seconds, merged counters, and chosen
// plans — must be bit-identical for every worker-thread count (DESIGN.md
// "Execution engine"). Runs every strategy, the adaptive runtime, and the
// plain JobRunner at threads=1 vs threads=8 over the shared toy-join
// workloads.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "mapreduce/job_runner.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"
#include "tests/run_digest.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::DigestOf;
using testing_util::ToyWorld;

void ExpectSameSplits(const std::vector<InputSplit>& a,
                      const std::vector<InputSplit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "split " << i;
    EXPECT_EQ(a[i].records, b[i].records) << "split " << i;
  }
}

void ExpectSameResult(const EFindRunResult& a, const EFindRunResult& b) {
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // Exact, not approximate.
  EXPECT_EQ(a.stats_wave_seconds, b.stats_wave_seconds);
  EXPECT_EQ(a.replanned, b.replanned);
  EXPECT_EQ(a.plan.ToString(), b.plan.ToString());
  EXPECT_EQ(a.counters.values(), b.counters.values());
  ExpectSameSplits(a.outputs, b.outputs);
}

struct RunnerPair {
  explicit RunnerPair(const ClusterConfig& config, size_t cache_capacity = 64)
      : serial_options([&] {
          EFindOptions o;
          o.cache_capacity = cache_capacity;
          o.threads = 1;
          return o;
        }()),
        parallel_options([&] {
          EFindOptions o;
          o.cache_capacity = cache_capacity;
          o.threads = 8;
          return o;
        }()),
        serial(config, serial_options),
        parallel(config, parallel_options) {}

  EFindOptions serial_options;
  EFindOptions parallel_options;
  EFindJobRunner serial;
  EFindJobRunner parallel;
};

class DeterminismTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeterminismTest, AllStrategiesMatchAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  // 30 splits on 12 nodes: several strands, several tasks per strand.
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  RunnerPair pair(config);
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    auto a = pair.serial.RunWithStrategy(conf, input, s);
    auto b = pair.parallel.RunWithStrategy(conf, input, s);
    ExpectSameResult(a, b);
  }
}

TEST_P(DeterminismTest, OptimizedPathMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  RunnerPair pair(config);
  CollectedStats stats_a = pair.serial.CollectStatistics(conf, input);
  CollectedStats stats_b = pair.parallel.CollectStatistics(conf, input);
  JobPlan plan_a = pair.serial.PlanFromStats(conf, stats_a);
  JobPlan plan_b = pair.parallel.PlanFromStats(conf, stats_b);
  EXPECT_EQ(plan_a.ToString(), plan_b.ToString());
  auto a = pair.serial.RunWithPlan(conf, input, plan_a, &stats_a);
  auto b = pair.parallel.RunWithPlan(conf, input, plan_b, &stats_b);
  ExpectSameResult(a, b);
}

TEST_P(DeterminismTest, DynamicRunMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  // Enough splits for several map waves so Algorithm 1 engages.
  const auto input = world.MakeInput(200, 20, 100);

  ClusterConfig config;
  RunnerPair pair(config);
  auto a = pair.serial.RunDynamic(conf, input);
  auto b = pair.parallel.RunDynamic(conf, input);
  ExpectSameResult(a, b);
}

TEST_P(DeterminismTest, FaultModelMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeInput(30, 40, 400);

  ClusterConfig config;
  config.task_failure_rate = 0.05;
  config.straggler_rate = 0.1;
  RunnerPair pair(config);
  auto a = pair.serial.RunWithStrategy(conf, input, Strategy::kLookupCache);
  auto b = pair.parallel.RunWithStrategy(conf, input, Strategy::kLookupCache);
  ExpectSameResult(a, b);
  auto da = pair.serial.RunDynamic(conf, input);
  auto db = pair.parallel.RunDynamic(conf, input);
  ExpectSameResult(da, db);
}

// Salted re-partitioning over a Zipf-1.2 key stream with the fault matrix
// on (DESIGN.md §12): the skew detector's hot set, the salted shuffle, and
// the merged outputs must all be bit-identical across thread counts.
TEST_P(DeterminismTest, SaltedRepartitionMatchesAcrossThreadCounts) {
  const bool with_reduce = GetParam();
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(with_reduce);
  const auto input = world.MakeZipfInput(30, 40, 400, /*theta=*/1.2);

  ClusterConfig config;
  config.task_failure_rate = 0.08;
  config.straggler_rate = 0.1;
  config.straggler_slowdown = 4.0;
  config.speculative_execution = true;
  config.speculation_threshold = 1.5;
  config.host_downtimes.push_back({3});
  config.degraded_hosts.push_back(5);
  config.fault_seed = 7;
  RunnerPair pair(config);

  CollectedStats stats_a = pair.serial.CollectStatistics(conf, input);
  CollectedStats stats_b = pair.parallel.CollectStatistics(conf, input);
  ASSERT_FALSE(stats_a.head.empty());
  ASSERT_FALSE(stats_a.head[0].index.empty());
  // The detector must flag "k0" (so salting actually engages below) and
  // produce the identical hot set at both thread counts.
  ASSERT_FALSE(stats_a.head[0].index[0].hot_keys.empty());
  EXPECT_EQ(stats_a.head[0].index[0].hot_keys,
            stats_b.head[0].index[0].hot_keys);
  EXPECT_EQ(stats_a.head[0].index[0].max_key_share,
            stats_b.head[0].index[0].max_key_share);

  const JobPlan plan = MakeUniformPlan(conf, Strategy::kSaltedRepartition);
  auto a = pair.serial.RunWithPlan(conf, input, plan, &stats_a);
  auto b = pair.parallel.RunWithPlan(conf, input, plan, &stats_b);
  ExpectSameResult(a, b);
}

INSTANTIATE_TEST_SUITE_P(MapOnlyAndReduce, DeterminismTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithReduce" : "MapOnly";
                         });

// The plain JobRunner (no EFind stages) must also be thread-count
// invariant, including per-task counters and the reduce-side grouping.
TEST(JobRunnerDeterminismTest, PlainJobMatchesAcrossThreadCounts) {
  ToyWorld world;
  const auto input = world.MakeInput(24, 50, 200);
  ClusterConfig config;
  JobConfig job;
  job.reducer = std::make_shared<testing_util::CountReducer>();
  job.num_reduce_tasks = 16;

  JobRunner serial(config);
  serial.set_num_threads(1);
  JobRunner parallel(config);
  parallel.set_num_threads(8);
  JobResult a = serial.Run(job, input);
  JobResult b = parallel.Run(job, input);

  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.map_task_durations, b.map_task_durations);
  EXPECT_EQ(a.counters.values(), b.counters.values());
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i].node, b.outputs[i].node);
    EXPECT_EQ(a.outputs[i].records, b.outputs[i].records);
  }
}

// ---------------------------------------------------------------------------
// Input ownership (DESIGN.md §6, §11). Caller-owned splits are read-only for
// the whole run; executor-owned intermediate splits are handed to the map
// tasks that read them, which move the records into their stage chains and
// release the split in their own strand. The cases below pin that the
// hand-off changes nothing observable: the caller's input is byte-identical
// after every entry point, and outputs, simulated seconds, counters,
// statistics and job summaries equal golden digests taken on the engine that
// copied every intermediate record instead.

/// Two chained head joins over distinct indices of the toy store, plus (with
/// a reducer) a tail join over the reducer's output: uniform re-partitioning
/// turns this into four or five jobs, each reading the previous job's
/// executor-owned output.
IndexJobConf MakeChainJob(const ToyWorld& world, bool with_reduce) {
  IndexJobConf conf;
  conf.set_name("toy_chain");
  for (const char* index : {"toy_a", "toy_b"}) {
    auto op = std::make_shared<testing_util::JoinOperator>();
    op->AddIndex(
        std::make_shared<KvIndexAccessor>(index, world.store.get()));
    conf.AddHeadIndexOperator(op);
  }
  if (with_reduce) {
    conf.SetReducer(std::make_shared<testing_util::CountReducer>());
    auto tail = std::make_shared<testing_util::JoinOperator>();
    tail->AddIndex(
        std::make_shared<KvIndexAccessor>("toy_c", world.store.get()));
    conf.AddTailIndexOperator(tail);
  }
  return conf;
}

/// The caller's splits with every attachment handle, compared after a run:
/// the contents must match and the handles must still be the caller's own.
struct InputSnapshot {
  explicit InputSnapshot(const std::vector<InputSplit>& input)
      : copy(input), digest(DigestOf(input)) {}

  void ExpectUnchanged(const std::vector<InputSplit>& input,
                       const std::string& what) const {
    EXPECT_EQ(DigestOf(input), digest) << what;
    ASSERT_EQ(input.size(), copy.size()) << what;
    for (size_t i = 0; i < input.size(); ++i) {
      EXPECT_EQ(input[i].node, copy[i].node) << what << " split " << i;
      ASSERT_EQ(input[i].records, copy[i].records) << what << " split " << i;
      for (size_t k = 0; k < input[i].records.size(); ++k) {
        EXPECT_EQ(input[i].records[k].attachment, copy[i].records[k].attachment)
            << what << " split " << i << " record " << k;
      }
    }
  }

  std::vector<InputSplit> copy;
  uint64_t digest;
};

/// Caller input whose records already carry attachments (a prior pipeline's
/// in-flight state), so a stage that mutated a shared attachment in place
/// would show up in the caller's splits.
std::vector<InputSplit> WithAttachments(std::vector<InputSplit> input) {
  int n = 0;
  for (auto& split : input) {
    for (auto& r : split.records) {
      if (n++ % 3 != 0) continue;
      auto a = std::make_shared<RecordAttachment>();
      a->saved_key = "orig" + std::to_string(n);
      r.attachment = std::move(a);
    }
  }
  return input;
}

struct GoldenCase {
  std::string name;
  uint64_t digest;
};

/// Runs every entry point over `input` at `threads`, checking after each
/// that the caller's splits are untouched, and returns the per-case digests.
std::vector<GoldenCase> RunAllEntryPoints(const IndexJobConf& conf,
                                          const std::vector<InputSplit>& input,
                                          const std::vector<InputSplit>& dyn,
                                          int threads) {
  ClusterConfig config;
  EFindOptions options;
  options.cache_capacity = 64;
  options.threads = threads;
  EFindJobRunner runner(config, options);
  const InputSnapshot snap(input);
  const InputSnapshot dyn_snap(dyn);
  const std::string at = " threads=" + std::to_string(threads);
  std::vector<GoldenCase> out;
  for (Strategy s : {Strategy::kBaseline, Strategy::kLookupCache,
                     Strategy::kRepartition, Strategy::kIndexLocality}) {
    const std::string name = std::string("strategy:") + ToString(s);
    out.push_back({name, DigestOf(runner.RunWithStrategy(conf, input, s))});
    snap.ExpectUnchanged(input, name + at);
  }
  const CollectedStats stats = runner.CollectStatistics(conf, input);
  out.push_back({"collect", DigestOf(stats)});
  snap.ExpectUnchanged(input, "collect" + at);
  const JobPlan plan = runner.PlanFromStats(conf, stats);
  out.push_back({"optimized", DigestOf(runner.RunWithPlan(conf, input, plan,
                                                          &stats))});
  snap.ExpectUnchanged(input, "optimized" + at);
  out.push_back(
      {"salted", DigestOf(runner.RunWithPlan(
                     conf, input,
                     MakeUniformPlan(conf, Strategy::kSaltedRepartition),
                     &stats))});
  snap.ExpectUnchanged(input, "salted" + at);
  out.push_back({"dynamic", DigestOf(runner.RunDynamic(conf, dyn))});
  dyn_snap.ExpectUnchanged(dyn, "dynamic" + at);
  return out;
}

std::string Describe(const std::vector<GoldenCase>& cases) {
  std::string s;
  char buf[64];
  for (const auto& c : cases) {
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(c.digest));
    s += "  {\"" + c.name + "\", " + buf + "},\n";
  }
  return s;
}

void ExpectGolden(const std::vector<GoldenCase>& golden,
                  const std::vector<GoldenCase>& actual,
                  const std::string& what) {
  ASSERT_EQ(golden.size(), actual.size()) << what << "\n" << Describe(actual);
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i].name, actual[i].name) << what;
    EXPECT_EQ(golden[i].digest, actual[i].digest)
        << what << " case " << actual[i].name << "\nactual:\n"
        << Describe(actual);
  }
}

// Digests of the artifact a cold run publishes (the grouped output of the
// join's re-partitioning shuffle), by layout.
constexpr uint64_t kRepartArtifactDigest = 0x412f2a84d19dc5caull;
constexpr uint64_t kIdxlocArtifactDigest = 0x2b53c383cee1de4cull;

struct OwnershipParam {
  const char* name;
  bool chain;
  bool with_reduce;
};

void PrintTo(const OwnershipParam& p, std::ostream* os) { *os << p.name; }

class OwnershipTest : public ::testing::TestWithParam<OwnershipParam> {};

// Taken on the engine that copied every record into the stage chain and
// tore the previous job's splits down on the orchestration thread.
const std::vector<GoldenCase>& GoldenFor(const OwnershipParam& p) {
  static const std::vector<GoldenCase> kJoinMapOnly = {
      {"strategy:base", 0x433e2e4d68d7d9a2ull},
      {"strategy:cache", 0x818d238c1718188dull},
      {"strategy:repart", 0xaa73f51984c9f777ull},
      {"strategy:idxloc", 0x8c80cb11d38bf1faull},
      {"collect", 0xf473dfb75b678b92ull},
      {"optimized", 0x818d238c1718188dull},
      {"salted", 0xbea4849731ae5d88ull},
      {"dynamic", 0xb5b1462978072042ull},
  };
  static const std::vector<GoldenCase> kJoinReduce = {
      {"strategy:base", 0xa8b2f11437258caeull},
      {"strategy:cache", 0xf00f5c7b045e8f8bull},
      {"strategy:repart", 0x2956d44ef44dc703ull},
      {"strategy:idxloc", 0x25f97e377b5e68c5ull},
      {"collect", 0xf473dfb75b678b92ull},
      {"optimized", 0xf00f5c7b045e8f8bull},
      {"salted", 0x221dc5844d3a3e7eull},
      {"dynamic", 0x138bf82d60c5d447ull},
  };
  static const std::vector<GoldenCase> kChainMapOnly = {
      {"strategy:base", 0x9cc9cd69a3a4bca7ull},
      {"strategy:cache", 0x21609edbfbe572faull},
      {"strategy:repart", 0xdb9cf6ebb169df5dull},
      {"strategy:idxloc", 0xca403c276cab33aeull},
      {"collect", 0x6721c41eb63b3295ull},
      {"optimized", 0x21609edbfbe572faull},
      {"salted", 0xa84a10f3e6bc5680ull},
      {"dynamic", 0x5885746afda1d0b8ull},
  };
  static const std::vector<GoldenCase> kChainReduce = {
      {"strategy:base", 0x4326c7c236bd8df6ull},
      {"strategy:cache", 0x50804e26dd116dcaull},
      {"strategy:repart", 0xb55de5d8b0a683b7ull},
      {"strategy:idxloc", 0x491e7da0c7d93941ull},
      {"collect", 0x0061b2dc6c3863fdull},
      {"optimized", 0x8158ba03f8ac2c17ull},
      {"salted", 0x30f7cc665dc4da2eull},
      {"dynamic", 0xedf0b7516656b65dull},
  };
  if (p.chain) return p.with_reduce ? kChainReduce : kChainMapOnly;
  return p.with_reduce ? kJoinReduce : kJoinMapOnly;
}

TEST_P(OwnershipTest, CallerInputUntouchedAndResultsMatchGolden) {
  const OwnershipParam& p = GetParam();
  ToyWorld world;
  const IndexJobConf conf = p.chain ? MakeChainJob(world, p.with_reduce)
                                    : world.MakeJoinJob(p.with_reduce);
  const auto input = WithAttachments(world.MakeZipfInput(30, 40, 400, 1.2));
  const auto dyn = WithAttachments(world.MakeInput(200, 20, 100));
  const auto serial = RunAllEntryPoints(conf, input, dyn, 1);
  const auto parallel = RunAllEntryPoints(conf, input, dyn, 8);
  ExpectGolden(GoldenFor(p), serial, std::string(p.name) + " threads=1");
  ExpectGolden(GoldenFor(p), parallel, std::string(p.name) + " threads=8");
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, OwnershipTest,
    ::testing::Values(OwnershipParam{"JoinMapOnly", false, false},
                      OwnershipParam{"JoinWithReduce", false, true},
                      OwnershipParam{"ChainMapOnly", true, false},
                      OwnershipParam{"ChainWithReduce", true, true}),
    [](const ::testing::TestParamInfo<OwnershipParam>& info) {
      return std::string(info.param.name);
    });

// A published artifact is a copy of the shuffle job's output taken after
// that job finished; the follow-up job then consumes the executor's own
// splits. The store's copy must still be the byte-identical grouped output
// afterwards — also after a warm run adopted it and consumed its copy.
TEST(OwnershipStoreTest, PublishedArtifactsStayByteIdentical) {
  ToyWorld world;
  const IndexJobConf conf = world.MakeJoinJob(/*with_reduce=*/true);
  const auto input = world.MakeInput(24, 40, 300);
  ClusterConfig config;
  for (Strategy s : {Strategy::kRepartition, Strategy::kIndexLocality}) {
    for (int threads : {1, 8}) {
      const std::string what = std::string(ToString(s)) +
                               " threads=" + std::to_string(threads);
      reuse::MaterializedStore store(64ull << 20, config.num_nodes);
      EFindOptions options;
      options.threads = threads;
      EFindJobRunner runner(config, options);
      runner.set_reuse(&store);
      const EFindRunResult cold = runner.RunWithStrategy(conf, input, s);
      const std::vector<reuse::ArtifactMeta> metas = store.Entries();
      ASSERT_EQ(metas.size(), 1u) << what;
      const std::vector<InputSplit>* artifact =
          store.Resolve(metas[0].fingerprint, nullptr);
      ASSERT_NE(artifact, nullptr) << what;
      EXPECT_EQ(reuse::ChecksumSplits(*artifact), metas[0].checksum) << what;
      EXPECT_EQ(TotalSizeBytes(*artifact), metas[0].bytes) << what;
      const uint64_t published = DigestOf(*artifact);
      EXPECT_EQ(published, s == Strategy::kRepartition
                               ? kRepartArtifactDigest
                               : kIdxlocArtifactDigest)
          << what << std::hex << " actual 0x" << published;

      const EFindRunResult warm = runner.RunWithStrategy(conf, input, s);
      EXPECT_EQ(store.stats().hits, 2u) << what;
      EXPECT_EQ(testing_util::Sorted(warm.CollectRecords()),
                testing_util::Sorted(cold.CollectRecords()))
          << what;
      artifact = store.Resolve(metas[0].fingerprint, nullptr);
      ASSERT_NE(artifact, nullptr) << what;
      EXPECT_EQ(DigestOf(*artifact), published) << what;
    }
  }
}

// Joins the record key against two indices; re-partitioning both gives the
// operator two shuffles, and only the first is ever served from the store,
// so a warm run still runs a shuffle job right after the adopted artifact.
class TwoIndexJoin : public IndexOperator {
 public:
  std::string name() const override { return "two_index_join"; }
  void PreProcess(Record* record, IndexKeyLists* keys) override {
    (*keys)[0].push_back(record->key);
    (*keys)[1].push_back(record->key);
  }
  void PostProcess(const Record& record, const IndexResultLists& results,
                   Emitter* out) override {
    std::string joined = record.value;
    for (const auto& per_index : results) {
      joined += ":";
      joined += per_index.empty() || per_index[0].empty()
                    ? "<miss>"
                    : per_index[0][0].data;
    }
    out->Emit(Record(record.key, joined));
  }
};

// The DFS boundary into each job charges the byte total the producing job's
// tasks summed, carried to the boundary instead of re-walked there. It must
// equal what the consuming map tasks actually read (their own per-record
// sum), including after the index-locality re-split and after adopting a
// stored artifact; the obs `dfs_boundary` span reports the same bytes.
TEST(OwnershipBytesTest, CarriedBoundaryBytesEqualTheBytesRead) {
  ToyWorld world;
  IndexJobConf two_index;
  two_index.set_name("toy_two_index");
  auto op = std::make_shared<TwoIndexJoin>();
  op->AddIndex(std::make_shared<KvIndexAccessor>("toy_x", world.store.get()));
  op->AddIndex(std::make_shared<KvIndexAccessor>("toy_y", world.store.get()));
  two_index.AddHeadIndexOperator(op);
  two_index.SetReducer(std::make_shared<testing_util::CountReducer>());
  const IndexJobConf chain = MakeChainJob(world, /*with_reduce=*/true);
  const auto input = world.MakeZipfInput(30, 40, 400, 1.2);
  ClusterConfig config;
  reuse::MaterializedStore store(64ull << 20, config.num_nodes);

  // Returns how many DFS boundaries the run charged.
  auto check = [&](const std::string& what, auto run) {
    obs::ObsSession session;
    EFindOptions options;
    options.threads = 4;
    EFindJobRunner runner(config, options);
    runner.set_reuse(&store);
    runner.set_obs(&session);
    const EFindRunResult r = run(runner);
    int charged = 0;
    double charged_bytes = 0.0;
    for (const auto& j : r.jobs) {
      // Reuse adoptions charge the resolve, not a DFS boundary.
      if (j.boundary_seconds <= 0.0 ||
          j.name.find(":reuse:") != std::string::npos) {
        continue;
      }
      ++charged;
      charged_bytes += static_cast<double>(j.input_bytes);
      EXPECT_GT(j.input_bytes, 0u) << what << " " << j.name;
      EXPECT_EQ(j.boundary_seconds,
                config.DfsStoreSeconds(j.input_bytes) / config.num_nodes)
          << what << " " << j.name;
    }
    int spans = 0;
    for (const auto& e : session.trace().events()) {
      if (e.name != "dfs_boundary") continue;
      ++spans;
      std::string bytes, into;
      for (const auto& a : e.args) {
        if (a.key == "bytes") bytes = a.value;
        if (a.key == "into_job") into = a.value;
      }
      const JobStageSummary* job = nullptr;
      for (const auto& j : r.jobs) {
        if (j.name == into) job = &j;
      }
      if (job == nullptr) {
        ADD_FAILURE() << what << ": no job named " << into;
        continue;
      }
      EXPECT_EQ(bytes, std::to_string(job->input_bytes)) << what << " " << into;
    }
    EXPECT_EQ(spans, charged) << what;
    obs::MetricsRegistry& mx = session.metrics();
    EXPECT_EQ(mx.CounterValue(mx.Counter("efind.dfs_boundary_bytes")),
              charged_bytes)
        << what;
    return charged;
  };

  for (Strategy s : {Strategy::kRepartition, Strategy::kIndexLocality,
                     Strategy::kSaltedRepartition}) {
    // The cold round publishes each operator's first shuffle; the warm
    // round adopts those artifacts (and, under index locality, re-splits
    // them) and runs everything after them on the executor's own splits.
    for (const char* round : {"cold", "warm"}) {
      for (const IndexJobConf* conf :
           std::vector<const IndexJobConf*>{&chain, &two_index}) {
        const std::string what =
            conf->name() + " " + ToString(s) + " " + round;
        const int charged = check(what, [&](EFindJobRunner& r) {
          const CollectedStats stats = r.CollectStatistics(*conf, input);
          return r.RunWithPlan(*conf, input, MakeUniformPlan(*conf, s),
                               &stats);
        });
        if (conf == &two_index || std::string(round) == "cold") {
          EXPECT_GT(charged, 0) << what;
        }
      }
    }
  }
  EXPECT_GT(store.stats().hits, 0u);
}

}  // namespace
}  // namespace efind
