#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "efind/efind_job_runner.h"
#include "mapreduce/job_runner.h"
#include "tests/test_util.h"

namespace efind {
namespace {

using testing_util::Sorted;
using testing_util::ToyWorld;

class PassThroughStage : public RecordStage {
 public:
  std::string name() const override { return "pass"; }
  void Process(Record record, TaskContext* ctx, Emitter* out) override {
    (void)ctx;
    out->Emit(std::move(record));
  }
};

std::vector<InputSplit> MakeInput(int splits, int per_split) {
  std::vector<InputSplit> input(splits);
  int id = 0;
  for (int s = 0; s < splits; ++s) {
    input[s].node = s % 12;
    for (int r = 0; r < per_split; ++r) {
      input[s].records.push_back(
          Record("k" + std::to_string(id % 7), std::to_string(id)));
      ++id;
    }
  }
  return input;
}

TEST(FaultModelTest, DisabledByDefault) {
  ClusterConfig config;
  JobRunner runner(config);
  EXPECT_DOUBLE_EQ(runner.ApplyFaults(1.0, 0, 42), 1.0);
}

TEST(FaultModelTest, FullFailureRateDoublesEveryTask) {
  ClusterConfig config;
  config.task_failure_rate = 1.0;
  JobRunner runner(config);
  for (int t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(runner.ApplyFaults(1.5, 0, t), 3.0);
  }
}

TEST(FaultModelTest, StragglerSlowdownApplied) {
  ClusterConfig config;
  config.straggler_rate = 1.0;
  config.straggler_slowdown = 4.0;
  JobRunner runner(config);
  EXPECT_DOUBLE_EQ(runner.ApplyFaults(2.0, 1, 7), 8.0);
}

TEST(FaultModelTest, DeterministicPerTask) {
  ClusterConfig config;
  config.task_failure_rate = 0.3;
  config.straggler_rate = 0.3;
  JobRunner a(config), b(config);
  for (int t = 0; t < 100; ++t) {
    EXPECT_DOUBLE_EQ(a.ApplyFaults(1.0, 0, t), b.ApplyFaults(1.0, 0, t));
  }
}

TEST(FaultModelTest, RateRoughlyRespected) {
  ClusterConfig config;
  config.task_failure_rate = 0.25;
  JobRunner runner(config);
  int failed = 0;
  const int n = 2000;
  for (int t = 0; t < n; ++t) {
    if (runner.ApplyFaults(1.0, 0, t) > 1.5) ++failed;
  }
  EXPECT_GT(failed, n / 4 - n / 10);
  EXPECT_LT(failed, n / 4 + n / 10);
}

TEST(FaultModelTest, FaultsLengthenJobsButPreserveOutput) {
  ClusterConfig healthy, faulty;
  faulty.task_failure_rate = 0.1;
  faulty.straggler_rate = 0.1;
  JobConfig job;
  job.map_stages.push_back(std::make_shared<PassThroughStage>());
  auto input = MakeInput(48, 20);

  JobResult h = JobRunner(healthy).Run(job, input);
  JobResult f = JobRunner(faulty).Run(job, input);
  EXPECT_GT(f.sim_seconds, h.sim_seconds);
  auto hr = h.CollectRecords();
  auto fr = f.CollectRecords();
  std::sort(hr.begin(), hr.end());
  std::sort(fr.begin(), fr.end());
  EXPECT_EQ(hr, fr);
}

// Strategy correctness is unaffected by faults — only timing moves.
TEST(FaultModelTest, EFindStrategiesAgreeUnderFaults) {
  ClusterConfig config;
  config.task_failure_rate = 0.15;
  config.straggler_rate = 0.1;
  ToyWorld world(200);
  auto input = world.MakeInput(24, 40, 120);
  IndexJobConf conf = world.MakeJoinJob(true);
  EFindJobRunner runner(config);
  auto base = runner.RunWithStrategy(conf, input, Strategy::kBaseline);
  auto repart = runner.RunWithStrategy(conf, input, Strategy::kRepartition);
  auto idxloc = runner.RunWithStrategy(conf, input, Strategy::kIndexLocality);
  auto dynamic = runner.RunDynamic(conf, input);
  const auto expected = Sorted(base.CollectRecords());
  EXPECT_EQ(Sorted(repart.CollectRecords()), expected);
  EXPECT_EQ(Sorted(idxloc.CollectRecords()), expected);
  EXPECT_EQ(Sorted(dynamic.CollectRecords()), expected);
}

// Stragglers hurt coarse-grained phases more: the index-locality pipeline
// with its extra job has more task waves exposed to slow tasks, but its
// proportional chunking keeps tasks small — both runs must stay within a
// sane envelope of their healthy counterparts.
TEST(FaultModelTest, StragglerImpactBounded) {
  ClusterConfig healthy, faulty;
  faulty.straggler_rate = 0.05;
  faulty.straggler_slowdown = 5.0;
  ToyWorld world(300, /*value_bytes=*/200);
  auto input = world.MakeInput(96, 60, 200);
  IndexJobConf conf = world.MakeJoinJob(true);
  for (Strategy s : {Strategy::kBaseline, Strategy::kIndexLocality}) {
    auto h = EFindJobRunner(healthy).RunWithStrategy(conf, input, s);
    auto f = EFindJobRunner(faulty).RunWithStrategy(conf, input, s);
    EXPECT_GE(f.sim_seconds, h.sim_seconds);
    EXPECT_LT(f.sim_seconds, h.sim_seconds * 6.0) << ToString(s);
  }
}

// ------------------------------------------------------------------------
// Retry/backoff clamping against pathological down intervals (DESIGN.md
// §10): the cumulative retry wait must never overshoot the instant the
// outage ends, and an outage outlasting the whole retry budget must skip
// the retry loop instead of accumulating useless backoff.

/// Single-partition scheme pinned to host 3 with replicas {3, 4, 5}.
class FixedHostScheme : public PartitionScheme {
 public:
  int num_partitions() const override { return 1; }
  int PartitionOf(std::string_view) const override { return 0; }
  int HostOfPartition(int) const override { return 3; }
  bool NodeHostsPartition(int node, int) const override {
    return node >= 3 && node <= 5;
  }
};

class FixedHostAccessor : public IndexAccessor {
 public:
  explicit FixedHostAccessor(const PartitionScheme* scheme)
      : scheme_(scheme) {}
  std::string name() const override { return "fixed"; }
  Status Lookup(const std::string& ik,
                std::vector<IndexValue>* out) override {
    out->assign(1, IndexValue(ik, 8));
    return Status::OK();
  }
  double ServiceSeconds(uint64_t) const override { return 1e-4; }
  double RemoteOverheadSeconds() const override { return 2e-6; }
  const PartitionScheme* partition_scheme() const override { return scheme_; }

 private:
  const PartitionScheme* scheme_;
};

TEST(FailoverClampTest, RetryWaitClampedToOutageEnd) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  config.lookup_max_attempts = 3;
  // Pathological interval: the outage ends long before the first backoff
  // would expire, so an unclamped wait would sleep past a host that is
  // already back up.
  config.host_downtimes.push_back({3, 0.0, 5e-4});
  HostAvailability avail(config);
  LookupFailover failover(&config, &avail);
  FixedHostScheme scheme;
  FixedHostAccessor accessor(&scheme);

  const double service = accessor.ServiceSeconds(8);
  const double healthy = service + accessor.RemoteOverheadSeconds() +
                         config.RemoteLookupSeconds(1 + 8);
  const LookupCharge charge =
      failover.Remote(accessor, "k", 8, service, /*task_clock=*/0.0);
  EXPECT_TRUE(charge.primary_down);
  EXPECT_FALSE(charge.failed_over);
  EXPECT_EQ(charge.attempts, 2);
  // Served by the primary at exactly the outage's end — the wait is the
  // remaining 5e-4, not the full 1e-3 backoff.
  EXPECT_DOUBLE_EQ(charge.seconds, 5e-4 + healthy);
  EXPECT_DOUBLE_EQ(charge.excess_sec, 5e-4);
}

TEST(FailoverClampTest, RetryLoopSkippedWhenOutageOutlastsBudget) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  config.lookup_max_attempts = 3;
  // Retry budget is 1e-3 + 2e-3 = 3e-3; the outage lasts 1s, so retrying
  // cannot succeed and the lookup must fail over immediately.
  config.host_downtimes.push_back({3, 0.0, 1.0});
  HostAvailability avail(config);
  LookupFailover failover(&config, &avail);
  FixedHostScheme scheme;
  FixedHostAccessor accessor(&scheme);

  const double service = accessor.ServiceSeconds(8);
  const double healthy = service + accessor.RemoteOverheadSeconds() +
                         config.RemoteLookupSeconds(1 + 8);
  const LookupCharge charge =
      failover.Remote(accessor, "k", 8, service, /*task_clock=*/0.0);
  EXPECT_TRUE(charge.primary_down);
  EXPECT_TRUE(charge.failed_over);
  // One reroute to replica 4, no retry attempts against the dead primary.
  EXPECT_EQ(charge.attempts, 2);
  EXPECT_DOUBLE_EQ(charge.seconds, config.rpc_overhead_sec + healthy);
}

TEST(FailoverClampTest, ZeroLengthOutageNeverWaits) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  // A degenerate interval [t, t): IsDown is false everywhere, so the
  // lookup takes the healthy path untouched.
  config.host_downtimes.push_back({3, 0.0, 0.0});
  HostAvailability avail(config);
  LookupFailover failover(&config, &avail);
  FixedHostScheme scheme;
  FixedHostAccessor accessor(&scheme);

  const double service = accessor.ServiceSeconds(8);
  const double healthy = service + accessor.RemoteOverheadSeconds() +
                         config.RemoteLookupSeconds(1 + 8);
  const LookupCharge charge =
      failover.Remote(accessor, "k", 8, service, /*task_clock=*/0.0);
  EXPECT_FALSE(charge.primary_down);
  EXPECT_EQ(charge.attempts, 1);
  EXPECT_DOUBLE_EQ(charge.seconds, healthy);
}

// ------------------------------------------------------------------------
// The service-level FaultModel (DESIGN.md §10): draws are pure functions of
// (seed, host, key, attempt), per-knob salted so one fault kind's knob does
// not reshuffle another kind's draws.

TEST(ServiceFaultModelTest, DisabledByDefault) {
  ClusterConfig config;
  HostAvailability avail(config);
  FaultModel faults(&config, &avail);
  EXPECT_FALSE(faults.service_faults());
  EXPECT_DOUBLE_EQ(faults.LatencySpikeFactor(0, "k", 0), 1.0);
  EXPECT_FALSE(faults.FlakyError(0, "k", 0));
  EXPECT_FALSE(faults.CorruptLookup(0, "k", 0));
}

TEST(ServiceFaultModelTest, DrawsAreDeterministic) {
  ClusterConfig config;
  config.lookup_latency_spike_rate = 0.3;
  config.lookup_flaky_rate = 0.3;
  config.lookup_corrupt_rate = 0.3;
  config.artifact_corrupt_rate = 0.3;
  HostAvailability avail(config);
  FaultModel a(&config, &avail), b(&config, &avail);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_DOUBLE_EQ(a.LatencySpikeFactor(i % 12, key, i),
                     b.LatencySpikeFactor(i % 12, key, i));
    EXPECT_EQ(a.FlakyError(i % 12, key, i), b.FlakyError(i % 12, key, i));
    EXPECT_EQ(a.CorruptLookup(i % 12, key, i),
              b.CorruptLookup(i % 12, key, i));
    EXPECT_EQ(a.CorruptArtifactChunk(0x1234u + i, i % 7, i % 3),
              b.CorruptArtifactChunk(0x1234u + i, i % 7, i % 3));
  }
}

TEST(ServiceFaultModelTest, KnobsDoNotReshuffleOtherStreams) {
  ClusterConfig base;
  base.lookup_latency_spike_rate = 0.3;
  ClusterConfig with_flaky = base;
  with_flaky.lookup_flaky_rate = 0.5;
  HostAvailability avail_a(base), avail_b(with_flaky);
  FaultModel a(&base, &avail_a), b(&with_flaky, &avail_b);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    // Turning flakiness on must not move the latency-spike draws.
    EXPECT_DOUBLE_EQ(a.LatencySpikeFactor(i % 12, key, i),
                     b.LatencySpikeFactor(i % 12, key, i));
  }
}

TEST(ServiceFaultModelTest, SpikeRateRoughlyRespected) {
  ClusterConfig config;
  config.lookup_latency_spike_rate = 0.25;
  config.lookup_latency_spike_factor = 8.0;
  HostAvailability avail(config);
  FaultModel faults(&config, &avail);
  int spiked = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double f =
        faults.LatencySpikeFactor(i % 12, "k" + std::to_string(i), 0);
    EXPECT_GE(f, 1.0);
    if (f > 1.0) ++spiked;
  }
  EXPECT_GT(spiked, n / 4 - n / 10);
  EXPECT_LT(spiked, n / 4 + n / 10);
}

TEST(ServiceFaultModelTest, StretchQuantileShape) {
  ClusterConfig config;
  config.lookup_latency_spike_rate = 0.1;
  config.lookup_latency_spike_factor = 8.0;
  HostAvailability avail(config);
  FaultModel faults(&config, &avail);
  // Below the spike mass the quantile is the healthy stretch.
  EXPECT_DOUBLE_EQ(faults.StretchQuantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(faults.StretchQuantile(0.9), 1.0);
  // Inside the spiked tail it grows with q.
  const double q95 = faults.StretchQuantile(0.95);
  const double q99 = faults.StretchQuantile(0.99);
  EXPECT_GT(q95, 1.0);
  EXPECT_GT(q99, q95);
}

// With every service knob at its default, Resilient must reduce exactly to
// the PR 2 host-availability charges — bit-identical seconds.
TEST(ServiceFaultModelTest, ResilientReducesToRemoteWithoutServiceFaults) {
  ClusterConfig config;
  config.lookup_retry_backoff_sec = 1e-3;
  config.host_downtimes.push_back({3, 0.0, 5e-4});
  config.degraded_hosts.push_back(4);
  HostAvailability avail(config);
  FaultModel faults(&config, &avail);
  LookupFailover failover(&config, &avail, &faults);
  FixedHostScheme scheme;
  FixedHostAccessor accessor(&scheme);
  BreakerBank breakers(config.num_nodes, 1);

  const double service = accessor.ServiceSeconds(8);
  for (double clock : {0.0, 1e-4, 1e-3, 0.5}) {
    const LookupCharge plain =
        failover.Remote(accessor, "k", 8, service, clock);
    const LookupCharge resilient = failover.Resilient(
        accessor, "k", 8, service, /*task_node=*/0, /*local=*/false, clock,
        &breakers);
    EXPECT_EQ(plain.seconds, resilient.seconds) << "clock=" << clock;
    EXPECT_EQ(plain.excess_sec, resilient.excess_sec);
    EXPECT_EQ(plain.attempts, resilient.attempts);
    EXPECT_EQ(resilient.hedges, 0);
    EXPECT_EQ(resilient.corrupt_detected, 0);
  }
}

}  // namespace
}  // namespace efind
