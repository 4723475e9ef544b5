// perfbench_worker: runs ONE repetition of one benchmark workload in its
// own process and prints one JSON object on stdout. perfbench/run.py starts
// a fresh worker per repetition, so `ru_maxrss` belongs to that repetition
// alone, and aggregates, verifies and reports.
//
//   perfbench_worker --workload q9_dup10|store_join|service_day
//                    --seed N --threads T --role reference|measure|traced
//                    [--size full|tiny] --tmp DIR [--trace-out FILE]
//
// Roles:
//   reference  computes the expected output digests with an independent
//              plan or backend (baseline plan; in-memory KvStore for the
//              store join; for the service day, each job's checksum from
//              a day whose outputs were checked against the baseline
//              plan). Nothing is timed.
//   measure    times set-up and the job, untraced.
//   traced     the same with every user-plugin call wrapped in a timing
//              shim and every coarse call in a span; the span list is
//              written to --trace-out.
//
// The workload seed is an input of the generators only; the engine sees
// the generated data. All files (packed store, journals) go under --tmp.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "efind/efind_job_runner.h"
#include "kvstore/kv_store.h"
#include "layer_clock.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "reuse/materialized_store.h"
#include "service/arrival.h"
#include "service/job_service.h"
#include "shims.h"
#include "store/packed_store.h"
#include "workloads/synthetic.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using efind::ClusterConfig;
using efind::CollectedStats;
using efind::Counters;
using efind::EFindJobRunner;
using efind::EFindOptions;
using efind::EFindRunResult;
using efind::IndexJobConf;
using efind::InputSplit;
using efind::JobPlan;
using efind::Record;
using efind::Strategy;

// --- command line ------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int threads = 1;
  std::string role = "measure";
  bool tiny = false;
  std::string tmp;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench_worker: %s\n", why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--threads") {
      a.threads = std::atoi(v.c_str());
    } else if (flag == "--role") {
      a.role = v;
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") Usage("--size must be full or tiny");
      a.tiny = v == "tiny";
    } else if (flag == "--tmp") {
      a.tmp = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.threads < 1) Usage("--threads must be >= 1");
  if (a.role != "reference" && a.role != "measure" && a.role != "traced") {
    Usage("--role must be reference, measure or traced");
  }
  if (a.tmp.empty()) Usage("--tmp is required");
  return a;
}

// --- host measurements -------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                      : 0.0;
}

/// Wall and CPU time of one timed section.
class Stopwatch {
 public:
  Stopwatch() : wall_ns_(NowNs()), cpu_s_(CpuSeconds()) {}
  double WallSeconds() const {
    return static_cast<double>(NowNs() - wall_ns_) * 1e-9;
  }
  double CpuSecondsSince() const { return CpuSeconds() - cpu_s_; }

 private:
  uint64_t wall_ns_;
  double cpu_s_;
};

// --- output verification -----------------------------------------------

/// Order-independent digest of a job's output: the records sorted as a
/// multiset, framed and hashed like the engine's split checksums.
std::string SortedDigest(const std::vector<InputSplit>& splits) {
  InputSplit all;
  for (const InputSplit& s : splits) {
    all.records.insert(all.records.end(), s.records.begin(), s.records.end());
  }
  std::sort(all.records.begin(), all.records.end());
  const size_t n = all.records.size();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx:%zu",
                static_cast<unsigned long long>(efind::reuse::ChecksumSplits(
                    std::vector<InputSplit>{std::move(all)})),
                n);
  return buf;
}

// --- JSON output -------------------------------------------------------

class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Field(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, Quoted(v));
  }
  void StrList(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(vs[i]);
    }
    Field(key, out + "]");
  }
  void NumMap(const std::string& key, const std::map<std::string, double>& m) {
    Json inner;
    for (const auto& [k, v] : m) inner.Num(k, v);
    Field(key, inner.Done());
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    out += efind::obs::JsonEscape(s);
    return out += '"';
  }
  void Field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quoted(key) + ": " + raw;
  }
  std::string body_;
};

// --- what one repetition reports ---------------------------------------

struct Report {
  /// Host and simulated measurements, named as in BENCHMARK.json /
  /// perfbench/README.md (without clock or unit).
  std::map<std::string, double> metrics;
  /// Expected (reference) or produced (measure/traced) output digests:
  /// one entry for a one-shot job; for a service day "job<i>=<checksum>"
  /// per finished job, where the reference lists only the jobs it verified.
  std::vector<std::string> digests;
  /// Jobs attempted, and those that errored or were rejected in-process
  /// (for the reference day: also those that failed verification).
  int attempted = 0;
  int errored = 0;
  std::string plan;
};

/// Sum of the per-index counters `efind.<operator>.idx<j><suffix>`.
double SumIndexCounters(const Counters& c, const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, v] : c.values()) {
    if (name.rfind("efind.", 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += v;
    }
  }
  return sum;
}

/// Layer metrics read from an engine run's counters.
void AddCounterMetrics(const Counters& c, Report* r) {
  const double cache_hits = SumIndexCounters(c, ".cache_hits");
  const double lookups = SumIndexCounters(c, ".lookups");
  auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  auto& m = r->metrics;
  m["efind.cache_hits"] = cache_hits;
  m["efind.index_lookups"] = lookups;
  m["efind.cache_hit_ratio"] = ratio(cache_hits, cache_hits + lookups);
  m["efind.lookup_errors"] = SumIndexCounters(c, ".lookup_errors");
  const double shuffle_records = c.Get("mr.shuffle.records");
  const double allocs = c.Get("efind.alloc.count");
  m["mapreduce.shuffle_records"] = shuffle_records;
  m["mapreduce.shuffle_bytes"] = c.Get("mr.shuffle.batch_bytes");
  m["common.arena_allocs"] = allocs;
  m["common.arena_alloc_bytes"] = c.Get("efind.alloc.bytes");
  m["common.records_per_alloc"] = ratio(shuffle_records, allocs);
  const double page_reads = c.Get("efind.store.page_reads");
  m["store.page_reads"] = page_reads;
  m["store.coalesced_page_reads"] = c.Get("efind.store.coalesced_page_reads");
  m["store.pages_per_lookup"] =
      ratio(page_reads, c.Get("efind.store.batched_lookups"));
  const double hits = c.Get("efind.reuse.hits");
  const double misses = c.Get("efind.reuse.misses");
  m["reuse.hits"] = hits;
  m["reuse.misses"] = misses;
  m["reuse.hit_ratio"] = ratio(hits, hits + misses);
}

/// Self time of the shimmed layers, read after a traced job.
void AddLayerMetrics(const SpanRecorder& spans, double traced_wall_s,
                     Report* r) {
  const LayerTotals& t = LayerTotals::Get();
  const StoreCallCounts store = GetStoreCallCounts();
  auto& m = r->metrics;
  auto per_call_ns = [](double s, double calls) {
    return calls > 0 ? s * 1e9 / calls : 0.0;
  };
  m["workloads.generate_s"] = spans.Seconds("workloads.generate");
  m["store.build_s"] = spans.Seconds("store.build");
  m["service.setup_s"] = spans.Seconds("service.setup");
  m["efind.stats_s"] = spans.Seconds("efind.stats");
  m["efind.optimizer_s"] = spans.Seconds("efind.optimizer");
  m["efind.execute_s"] = spans.Seconds("efind.execute");
  m["service.run_s"] = spans.Seconds("service.run");
  const double kv_s = t.Seconds(Layer::kKvLookup);
  const double kv_n = static_cast<double>(t.Calls(Layer::kKvLookup));
  m["kvstore.lookup_s"] = kv_s;
  m["kvstore.lookups"] = kv_n;
  m["kvstore.ns_per_lookup"] = per_call_ns(kv_s, kv_n);
  const double store_s = t.Seconds(Layer::kStoreLookup);
  m["store.lookup_s"] = store_s;
  m["store.lookups"] = static_cast<double>(store.submits);
  m["store.flushes"] = static_cast<double>(store.flushes);
  m["store.ns_per_lookup"] =
      per_call_ns(store_s, static_cast<double>(store.submits));
  m["efind.pre_s"] = t.Seconds(Layer::kPre);
  m["efind.post_s"] = t.Seconds(Layer::kPost);
  m["mapreduce.map_fn_s"] = t.Seconds(Layer::kMapFn);
  m["mapreduce.reduce_fn_s"] = t.Seconds(Layer::kReduceFn);
  // Everything inside the engine-driving calls that no shim claimed.
  const double engine_calls =
      m["efind.stats_s"] + m["efind.execute_s"] + m["service.run_s"];
  const double shimmed = kv_s + store_s + m["efind.pre_s"] +
                         m["efind.post_s"] + m["mapreduce.map_fn_s"] +
                         m["mapreduce.reduce_fn_s"];
  m["engine.self_s"] = std::max(0.0, engine_calls - shimmed);
  m["engine.self_frac"] =
      traced_wall_s > 0 ? m["engine.self_s"] / traced_wall_s : 0.0;
  m["traced.wall_s"] = traced_wall_s;
  m["traced.unattributed_s"] =
      std::max(0.0, traced_wall_s - spans.TopLevelSeconds());
}

void WriteSpans(const SpanRecorder& spans, const std::string& path) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  const auto& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %d}%s\n",
                 all[i].name.c_str(),
                 static_cast<unsigned long long>(all[i].start_ns),
                 static_cast<unsigned long long>(all[i].end_ns),
                 all[i].parent, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

double ObsCounter(const efind::obs::ObsSession& session,
                  const std::string& name) {
  for (const auto& [k, v] : session.metrics().CounterValues()) {
    if (k == name) return v;
  }
  return 0.0;
}

EFindOptions RunnerOptions(int threads) {
  EFindOptions o;
  o.threads = threads;
  return o;
}

/// Records a one-shot job's measurements right after its timed section,
/// then, untimed, its output digest and, when traced, the layer split and
/// the DFS boundary bytes. Those are an observability metric, read from
/// `rerun`: the same job run again with a session attached.
template <typename Rerun>
void FinishOneShot(const Args& a, const Stopwatch& setup, double setup_s,
                   const Stopwatch& timer, const SpanRecorder* spans,
                   const EFindRunResult& result, Rerun rerun, Report* r) {
  auto& m = r->metrics;
  m["job_s"] = timer.WallSeconds();
  m["wall_s"] = m["job_s"];
  m["cpu_s"] = timer.CpuSecondsSince();
  m["peak_rss_mb"] = PeakRssMb();
  m["setup_s"] = setup_s;
  m["sim_s"] = result.sim_seconds;
  r->plan = result.plan.ToString();
  AddCounterMetrics(result.counters, r);
  if (m["efind.lookup_errors"] > 0) r->errored = 1;
  // A one-shot job runs without the job service, an artifact store or
  // journals: their counts are zero.
  for (const char* name :
       {"service.deferred", "service.rejected", "service.backups_preempted",
        "reuse.materialized_bytes", "common.wal_bytes_per_job"}) {
    m[name] = 0.0;
  }
  if (spans != nullptr) {
    AddLayerMetrics(*spans, setup.WallSeconds(), r);
    WriteSpans(*spans, a.trace_out);
  }
  r->digests.push_back(SortedDigest(result.outputs));
  if (spans != nullptr) {
    efind::obs::ObsSession session;
    EFindJobRunner runner(ClusterConfig{}, RunnerOptions(a.threads));
    runner.set_obs(&session);
    rerun(&runner);
    m["efind.dfs_boundary_bytes"] =
        ObsCounter(session, "efind.dfs_boundary_bytes");
  }
}

// --- q9_dup10: TPC-H Q9 over 10x duplicated LineItem -------------------

efind::TpchOptions Q9Options(const Args& a) {
  efind::TpchOptions o;  // Cardinalities as in the fig11e bench, fewer orders.
  o.num_orders = a.tiny ? 300 : 8000;
  o.num_splits = a.tiny ? 24 : 640;
  o.num_customers = a.tiny ? 500 : 10000;
  o.num_suppliers = a.tiny ? 500 : 10000;
  o.num_parts = a.tiny ? 1000 : 20000;
  o.dup_factor = 10;
  o.seed = a.seed;
  return o;
}

void RunQ9(const Args& a, Report* r) {
  const ClusterConfig config;
  const bool traced = a.role == "traced";
  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;

  const Stopwatch setup;
  efind::TpchData data;
  IndexJobConf conf;
  {
    SpanScope s(spans, "workloads.generate");
    data = efind::GenerateTpch(Q9Options(a), config.num_nodes);
    conf = efind::MakeTpchQ9Job(data);
  }
  const double setup_s = setup.WallSeconds();
  r->attempted = 1;

  if (a.role == "reference") {
    EFindJobRunner runner(config, RunnerOptions(a.threads));
    const EFindRunResult ref =
        runner.RunWithStrategy(conf, data.lineitem, Strategy::kBaseline);
    r->digests.push_back(SortedDigest(ref.outputs));
    return;
  }

  const IndexJobConf job = traced ? TraceConf(conf) : conf;
  EFindJobRunner runner(config, RunnerOptions(a.threads));
  const Stopwatch timer;
  CollectedStats stats;
  JobPlan plan;
  EFindRunResult result;
  {
    SpanScope s(spans, "efind.stats");
    stats = runner.CollectStatistics(job, data.lineitem);
  }
  {
    SpanScope s(spans, "efind.optimizer");
    plan = runner.PlanFromStats(job, stats);
  }
  {
    SpanScope s(spans, "efind.execute");
    result = runner.RunWithPlan(job, data.lineitem, plan, &stats);
  }
  FinishOneShot(a, setup, setup_s, timer, spans, result,
                [&](EFindJobRunner* rerun) {
                  rerun->RunWithPlan(conf, data.lineitem, plan, &stats);
                },
                r);
}

// --- store_join: synthetic join served by the on-disk packed store -----

efind::SyntheticOptions StoreJoinOptions(const Args& a) {
  efind::SyntheticOptions o;
  o.num_records = a.tiny ? 4000 : 600000;
  o.num_distinct_keys = a.tiny ? 2000 : 300000;  // Theta = 2, >> cache.
  o.num_splits = a.tiny ? 12 : 96;
  o.record_value_bytes = 200;
  o.index_value_bytes = 200;
  o.seed = a.seed;
  return o;
}

void RunStoreJoin(const Args& a, Report* r) {
  const ClusterConfig config;  // store_batch_depth = 16 (the default).
  const bool traced = a.role == "traced";
  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;
  const efind::SyntheticOptions syn = StoreJoinOptions(a);
  r->attempted = 1;

  if (a.role == "reference") {
    // The same join against the in-memory KvStore: an independent backend.
    const std::vector<InputSplit> input =
        efind::GenerateSynthetic(syn, config.num_nodes);
    efind::KvStoreOptions kv;
    kv.num_nodes = config.num_nodes;
    efind::KvStore index(kv);
    efind::LoadSyntheticIndex(syn, &index);
    const IndexJobConf conf = efind::MakeSyntheticJoinJob(&index);
    EFindJobRunner runner(config, RunnerOptions(a.threads));
    const EFindRunResult ref =
        runner.RunWithStrategy(conf, input, Strategy::kBaseline);
    r->digests.push_back(SortedDigest(ref.outputs));
    return;
  }

  const Stopwatch setup;
  std::vector<InputSplit> input;
  efind::store::PackedStoreOptions sopts;
  sopts.dir = a.tmp + "/packed_store";
  sopts.num_nodes = config.num_nodes;
  efind::store::PackedStoreBuilder builder(sopts);
  {
    SpanScope s(spans, "workloads.generate");
    input = efind::GenerateSynthetic(syn, config.num_nodes);
    efind::LoadSyntheticStoreIndex(syn, &builder);
  }
  std::unique_ptr<efind::store::PackedObjectStore> store;
  {
    SpanScope s(spans, "store.build");
    std::string error;
    store = builder.Build(&error);
    if (store == nullptr) {
      std::fprintf(stderr, "packed store build failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
  const IndexJobConf conf = efind::MakeSyntheticStoreJoinJob(store.get());
  const double setup_s = setup.WallSeconds();

  const IndexJobConf job = traced ? TraceConf(conf) : conf;
  EFindJobRunner runner(config, RunnerOptions(a.threads));
  const JobPlan plan = efind::MakeUniformPlan(job, Strategy::kLookupCache);
  const Stopwatch timer;
  EFindRunResult result;
  {
    SpanScope s(spans, "efind.execute");
    result = runner.RunWithPlan(job, input, plan, nullptr);
  }
  FinishOneShot(a, setup, setup_s, timer, spans, result,
                [&](EFindJobRunner* rerun) {
                  rerun->RunWithPlan(conf, input, plan, nullptr);
                },
                r);
}

// --- service_day: a multi-tenant JobService day ------------------------

/// Template ids, in AddTemplate order.
enum ServiceTemplate { kQ3 = 0, kQ3Followup = 1, kSmallJoin = 2 };
const char* const kTemplateNames[] = {"q3_repart", "q3_followup",
                                      "small_join"};
const Strategy kTemplateStrategies[] = {
    Strategy::kRepartition, Strategy::kRepartition, Strategy::kLookupCache};

/// The day's inputs and job descriptions (borrowed by the templates).
struct ServiceData {
  efind::TpchData tpch;
  efind::SyntheticOptions syn;
  std::unique_ptr<efind::KvStore> syn_index;
  std::vector<InputSplit> syn_input;
  IndexJobConf confs[3];
  const std::vector<InputSplit>* inputs[3] = {};
};

void GenerateServiceData(const Args& a, const ClusterConfig& config,
                         ServiceData* d) {
  efind::TpchOptions t;
  t.num_orders = a.tiny ? 200 : 6000;
  t.num_customers = a.tiny ? 100 : 3000;
  t.num_suppliers = a.tiny ? 100 : 3000;
  t.num_parts = a.tiny ? 200 : 6000;
  t.num_splits = a.tiny ? 6 : 48;
  t.seed = a.seed;
  d->tpch = efind::GenerateTpch(t, config.num_nodes);
  d->syn.num_records = a.tiny ? 600 : 9000;
  d->syn.num_distinct_keys = a.tiny ? 300 : 4500;
  d->syn.num_splits = a.tiny ? 6 : 48;
  d->syn.seed = a.seed + 1;
  d->syn_input = efind::GenerateSynthetic(d->syn, config.num_nodes);
  efind::KvStoreOptions kv;
  kv.num_nodes = config.num_nodes;
  d->syn_index = std::make_unique<efind::KvStore>(kv);
  efind::LoadSyntheticIndex(d->syn, d->syn_index.get());
  d->confs[kQ3] = efind::MakeTpchQ3Job(d->tpch);
  d->confs[kQ3Followup] = efind::MakeTpchQ3FollowupJob(d->tpch);
  d->confs[kSmallJoin] = efind::MakeSyntheticJoinJob(d->syn_index.get());
  d->inputs[kQ3] = &d->tpch.lineitem;
  d->inputs[kQ3Followup] = &d->tpch.lineitem;
  d->inputs[kSmallJoin] = &d->syn_input;
}

/// Four tenants with fixed templates and open-loop Poisson arrivals at
/// fixed rates on the service clock. At kRate jobs per simulated second the
/// cluster is busy but keeps up: admission defers a share of submissions,
/// and the backlog drains.
std::vector<efind::service::TenantArrivalSpec> ServiceTenants(const Args& a) {
  const int scale = a.tiny ? 1 : 6;
  const double kRate = 4.0;
  return {{kRate, 4 * scale, {kQ3}},
          {kRate, 4 * scale, {kQ3Followup}},
          {2 * kRate, 5 * scale, {kSmallJoin}},
          {2 * kRate, 5 * scale, {kSmallJoin}}};
}
const char* const kTenantNames[] = {"etl", "reporting", "probe_a", "probe_b"};

/// A fair-share service over the day's templates, with a shared artifact
/// store and both journals under --tmp.
struct ServiceDay {
  std::string service_wal;
  std::string reuse_wal;
  std::unique_ptr<efind::reuse::MaterializedStore> store;
  std::unique_ptr<efind::service::JobService> svc;
};

constexpr uint64_t kArtifactStoreBytes = 256ull << 20;

void SetUpServiceDay(const Args& a, const ClusterConfig& config,
                     const ServiceData& data, const IndexJobConf* confs,
                     bool keep_outputs, ServiceDay* day) {
  day->service_wal = a.tmp + "/service.wal";
  day->reuse_wal = a.tmp + "/reuse.wal";
  day->store = std::make_unique<efind::reuse::MaterializedStore>(
      kArtifactStoreBytes, config.num_nodes);
  const efind::Status st = day->store->AttachJournal(day->reuse_wal);
  if (!st.ok()) {
    std::fprintf(stderr, "reuse journal: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  efind::service::ServiceOptions opts;
  opts.policy = efind::service::SchedulePolicy::kFairShare;
  opts.efind = RunnerOptions(a.threads);
  opts.keep_outputs = keep_outputs;
  opts.journal_path = day->service_wal;
  day->svc = std::make_unique<efind::service::JobService>(config, opts);
  for (int t = 0; t < 4; ++t) {
    // At most two jobs in the system per tenant; the rest wait in an
    // unbounded backlog, so the day defers but never rejects.
    day->svc->AddTenant(kTenantNames[t], 1.0,
                        efind::service::TenantQuota{2, 0});
  }
  for (int t = 0; t < 3; ++t) {
    day->svc->AddTemplate({&confs[t], data.inputs[t], kTemplateStrategies[t]});
  }
  day->svc->set_store(day->store.get());
}

/// False for a job that was rejected, never finished or hit a lookup error.
bool JobSucceeded(const efind::service::JobOutcome& job) {
  return !job.rejected && job.finish >= 0 &&
         SumIndexCounters(job.counters, ".lookup_errors") == 0;
}

std::string JobDigest(size_t index, const efind::service::JobOutcome& job) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "job%zu=%016llx", index,
                static_cast<unsigned long long>(job.output_checksum));
  return buf;
}

/// The reference day: the same submissions, untraced and untimed, with
/// every output kept and compared as a sorted multiset with its template's
/// baseline-plan output. Reports the raw output checksum of each job that
/// verified; the measured repetitions then compare checksums only.
void RunServiceReference(const Args& a, const ClusterConfig& config,
                         const ServiceData& data,
                         const std::vector<efind::service::Arrival>& arrivals,
                         Report* r) {
  std::string baseline[3];
  for (int t = 0; t < 3; ++t) {
    EFindJobRunner runner(config, RunnerOptions(a.threads));
    baseline[t] = SortedDigest(runner.RunWithStrategy(
        data.confs[t], *data.inputs[t], Strategy::kBaseline).outputs);
  }
  ServiceDay day;
  SetUpServiceDay(a, config, data, data.confs, /*keep_outputs=*/true, &day);
  const efind::service::ServiceResult result = day.svc->Run(arrivals);
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    const auto& job = result.jobs[i];
    // A job left without an expected checksum fails in every measured
    // repetition too.
    if (!JobSucceeded(job) ||
        SortedDigest(job.outputs) != baseline[job.job_template]) {
      ++r->errored;
      continue;
    }
    r->digests.push_back(JobDigest(i, job));
  }
}

void RunServiceDay(const Args& a, Report* r) {
  const ClusterConfig config;
  const bool traced = a.role == "traced";
  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;

  const Stopwatch setup;
  ServiceData data;
  {
    SpanScope s(spans, "workloads.generate");
    GenerateServiceData(a, config, &data);
  }
  const auto tenants = ServiceTenants(a);
  const std::vector<efind::service::Arrival> arrivals =
      efind::service::GenerateArrivals(tenants, a.seed);
  r->attempted = static_cast<int>(arrivals.size());

  if (a.role == "reference") {
    RunServiceReference(a, config, data, arrivals, r);
    return;
  }

  IndexJobConf traced_confs[3];
  if (traced) {
    for (int t = 0; t < 3; ++t) traced_confs[t] = TraceConf(data.confs[t]);
  }
  ServiceDay day;
  {
    SpanScope s(spans, "service.setup");
    SetUpServiceDay(a, config, data, traced ? traced_confs : data.confs,
                    /*keep_outputs=*/false, &day);
  }
  const double setup_s = setup.WallSeconds();

  const Stopwatch timer;
  efind::service::ServiceResult result;
  {
    SpanScope s(spans, "service.run");
    result = day.svc->Run(arrivals);
  }
  const double run_s = timer.WallSeconds();
  auto& m = r->metrics;
  m["wall_s"] = run_s;
  m["cpu_s"] = timer.CpuSecondsSince();
  m["peak_rss_mb"] = PeakRssMb();
  m["setup_s"] = setup_s;

  std::vector<double> latencies;
  double sim_s = 0;
  int finished = 0;
  for (size_t i = 0; i < result.jobs.size(); ++i) {
    const auto& job = result.jobs[i];
    if (!JobSucceeded(job)) {
      ++r->errored;
      continue;
    }
    ++finished;
    latencies.push_back(job.latency());
    sim_s += job.isolated_seconds;
    r->digests.push_back(JobDigest(i, job));
  }
  m["sim_s"] = sim_s;
  m["job_s"] = finished > 0 ? run_s / finished : run_s;
  m["jobs_per_s"] = finished / run_s;
  m["svc_latency_p50_s"] = efind::service::Percentile(latencies, 0.50);
  m["svc_latency_p90_s"] = efind::service::Percentile(latencies, 0.90);
  AddCounterMetrics(result.counters, r);
  double deferred = 0, rejected = 0;
  for (const auto& t : result.tenants) {
    deferred += static_cast<double>(t.deferred);
    rejected += static_cast<double>(t.rejected);
  }
  m["service.deferred"] = deferred;
  m["service.rejected"] = rejected;
  m["service.backups_preempted"] =
      static_cast<double>(result.backups_preempted);
  double published = 0;
  for (const auto& [tenant, st] : day.store->tenant_stats()) {
    published += static_cast<double>(st.published_bytes);
  }
  m["reuse.materialized_bytes"] = published;
  m["common.wal_bytes_per_job"] =
      finished > 0
          ? (FileBytes(day.service_wal) + FileBytes(day.reuse_wal)) / finished
          : 0.0;
  if (traced) {
    AddLayerMetrics(recorder, setup.WallSeconds(), r);
    WriteSpans(recorder, a.trace_out);
    // DFS boundary bytes: replay the admitted jobs in admission order
    // through one runner with a fresh store and an observability session
    // (untimed; the service keeps its runner's tracing detached).
    std::vector<size_t> order;
    for (size_t i = 0; i < result.jobs.size(); ++i) {
      if (!result.jobs[i].rejected && result.jobs[i].admit >= 0) {
        order.push_back(i);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return result.jobs[x].admit < result.jobs[y].admit;
    });
    efind::obs::ObsSession session;
    efind::reuse::MaterializedStore replay_store(kArtifactStoreBytes,
                                                 config.num_nodes);
    EFindJobRunner replay(config, RunnerOptions(a.threads));
    replay.set_obs(&session);
    replay.set_reuse(&replay_store);
    for (const size_t i : order) {
      const auto& job = result.jobs[i];
      replay.set_tenant(kTenantNames[job.tenant]);
      replay.RunWithStrategy(data.confs[job.job_template],
                             *data.inputs[job.job_template],
                             kTemplateStrategies[job.job_template]);
    }
    m["efind.dfs_boundary_bytes"] =
        ObsCounter(session, "efind.dfs_boundary_bytes");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Report report;
  if (args.workload == "q9_dup10") {
    RunQ9(args, &report);
  } else if (args.workload == "store_join") {
    RunStoreJoin(args, &report);
  } else if (args.workload == "service_day") {
    RunServiceDay(args, &report);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  Json out;
  out.Str("workload", args.workload);
  out.Str("role", args.role);
  out.Num("seed", static_cast<double>(args.seed));
  out.Num("threads", args.threads);
  out.Num("attempted", report.attempted);
  out.Num("errored", report.errored);
  out.Str("plan", report.plan);
  out.StrList("digests", report.digests);
  out.NumMap("metrics", report.metrics);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}
