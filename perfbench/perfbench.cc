// Closed-loop publish benchmark: three workloads that each load a different
// layer of the publishing pipeline, an untraced mode that reports the
// end-to-end metrics, and a traced mode that reports per-layer metrics.
// README.md in this directory maps every layer to its metrics and
// workloads; run.py builds this program and forwards its arguments.
//
//   perfbench --workload publish_cold|republish_delta|service_mix
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Everything else (median latency and rate, per-plan medians, the host
// anchor) goes to stderr.
//
// Every timed publish is checked against a reference document published
// with the unified plan before timing starts: a wrong document, an error,
// or a shed request counts as a failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "engine/result_cache.h"
#include "engine/tuple_stream.h"
#include "relational/database.h"
#include "service/publishing_service.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/source.h"
#include "silkroute/sqlgen.h"
#include "silkroute/tagger.h"
#include "tpch/generator.h"
#include "xml/writer.h"

namespace silkroute::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// TPC-H Config A: ~0.97 MB of base data, ~20.7k rows.
constexpr double kScale = 0.025;
// Set-up is repeated at least kMinSetups times and for at least
// kMinSetupSeconds per run, and its median reported.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 3.0;
// Deterministic counters are per-operation means over the first kWindow
// traced operations of the seeded sequence, so they do not depend on how
// many operations fit into the run.
constexpr size_t kWindow = 8;
// republish_delta compares the cached document with an uncached publish of
// the same database state every kColdCheckEvery iterations (untimed).
constexpr size_t kColdCheckEvery = 16;
// Result-cache budget for republish_delta. Every shard's slice holds its
// fragments of Query 1 (~7 MB in all, the largest ~2 MB) plus a few
// documents (~1.6 MB each), so fragments never evict; the superseded
// document each publish leaves behind does once the budget fills, which
// keeps memory flat after the first few seconds.
constexpr size_t kCacheBudget = 48ull << 20;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The length and FNV-1a hash of a document.
struct Digest {
  uint64_t hash = 0xcbf29ce484222325ull;
  size_t size = 0;

  void Add(const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 0x100000001b3ull;
    }
    size += n;
  }
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(std::string_view s) {
  Digest d;
  d.Add(s.data(), s.size());
  return d;
}

// An output stream that keeps only the digest of what is written to it, so
// checking a publish's document costs no allocation or copy.
class DigestStream : public std::ostream {
 public:
  DigestStream() : std::ostream(nullptr) { rdbuf(&buf_); }
  const Digest& digest() const { return buf_.digest; }

 private:
  struct Buf : std::streambuf {
    Digest digest;
    int_type overflow(int_type c) override {
      if (!traits_type::eq_int_type(c, traits_type::eof())) {
        char ch = traits_type::to_char_type(c);
        digest.Add(&ch, 1);
      }
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      digest.Add(s, static_cast<size_t>(n));
      return n;
    }
  };
  Buf buf_;
};

// Linear interpolation between order statistics; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

long MinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// A fixed loop whose time moves only with the host, never with the
// program, so it tells host noise from program changes: a dependent walk
// over one random cycle through 4 MiB, which other tenants' cache and
// memory contention slows as it slows the publishes.
double HostAnchorMs() {
  std::vector<uint32_t> next(1u << 20);
  std::iota(next.begin(), next.end(), 0u);
  Random rng(0x5EED);
  for (size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: a single cycle
    std::swap(next[i], next[rng.Next() % i]);
  }
  auto start = Clock::now();
  uint32_t at = 0;
  for (int i = 0; i < 1'000'000; ++i) at = next[at];
  volatile uint32_t sink = at;
  (void)sink;
  return MsBetween(start, Clock::now());
}

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0;
    }
    metrics.push_back(Metric{name, value, unit});
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// The end-to-end metrics every untraced run reports. The latency metric is
// the 95th percentile, the highest with ten samples beyond it in a run of
// republish_delta or service_mix. The median and the rate are printed on
// stderr but not gated: on a shared host whose speed changes in phases of
// seconds, the share of slow publishes in a run swings, and they swing with
// it, while the 95th percentile stays in the slow phase.
void AddEndToEnd(Report* report, const std::vector<double>& latencies_ms,
                 double wall_ms, const std::vector<double>& setup_s) {
  if (latencies_ms.empty() || wall_ms <= 0) report->correct = false;
  std::fprintf(stderr, "%zu publishes: p50 %.2f ms, %.3f publishes/s\n",
               latencies_ms.size(), Quantile(latencies_ms, 0.5),
               static_cast<double>(latencies_ms.size()) / (wall_ms / 1000.0));
  report->Add("publish_ms_p95", Quantile(latencies_ms, 0.95), "ms");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSON lines when the run ends.

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent, uint64_t request) {
    double now = MsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, now, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  // Ends span `id` and returns its duration in milliseconds.
  double End(int id) {
    double now = MsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ms = now;
    return now - spans_[id].start_ms;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                    "\"end_ms\": %.6f, \"parent\": %d, \"request\": %llu}\n",
                    i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Executor counters.

struct EngineCounters {
  double rows_scanned = 0;
  double rows_joined = 0;
  double rows_sorted = 0;
  double hash_joins = 0;
  double keys_encoded = 0;

  void Add(const engine::ExecStats& s) {
    rows_scanned += static_cast<double>(s.rows_scanned);
    rows_joined += static_cast<double>(s.rows_joined);
    rows_sorted += static_cast<double>(s.rows_sorted);
    hash_joins += static_cast<double>(s.hash_joins);
    keys_encoded += static_cast<double>(s.keys_encoded);
  }
  void Add(const EngineCounters& o) {
    rows_scanned += o.rows_scanned;
    rows_joined += o.rows_joined;
    rows_sorted += o.rows_sorted;
    hash_joins += o.hash_joins;
    keys_encoded += o.keys_encoded;
  }
};

// The traced connection for the Publish and PublishingService paths: runs
// each component query on a fresh serial QueryExecutor, exactly as the
// built-in DatabaseExecutor does, and keeps its ExecStats. Counters are
// kept per SQL text, so concurrent requests can be attributed afterwards.
class CountingExecutor : public engine::SqlExecutor {
 public:
  explicit CountingExecutor(const Database* db) : db_(db) {}

  Result<engine::Relation> ExecuteSql(std::string_view sql) override {
    return ExecuteSqlWithDeadline(sql, 0);
  }
  Result<engine::Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                                  double timeout_ms) override {
    engine::QueryExecutor executor(db_);
    if (timeout_ms > 0) executor.set_timeout_ms(timeout_ms);
    auto result = executor.ExecuteSql(sql);
    std::lock_guard<std::mutex> lock(mu_);
    total_.Add(executor.stats());
    EngineCounters one;
    one.Add(executor.stats());
    by_sql_[std::string(sql)] = one;
    return result;
  }
  void set_timeout_ms(double) override {}

  Result<std::vector<std::pair<std::string, uint64_t>>> FetchTableVersions(
      const std::vector<std::string>& tables) override {
    std::vector<std::pair<std::string, uint64_t>> versions;
    for (const std::string& name : tables) {
      auto table = db_->GetTable(name);
      if (!table.ok()) return table.status();
      versions.emplace_back(name, (*table)->version());
    }
    std::sort(versions.begin(), versions.end());
    return versions;
  }

  EngineCounters total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  EngineCounters ForSql(const std::vector<std::string>& sqls) const {
    std::lock_guard<std::mutex> lock(mu_);
    EngineCounters sum;
    for (const std::string& sql : sqls) {
      auto it = by_sql_.find(sql);
      if (it != by_sql_.end()) sum.Add(it->second);
    }
    return sum;
  }

 private:
  const Database* db_;
  mutable std::mutex mu_;
  EngineCounters total_;
  std::unordered_map<std::string, EngineCounters> by_sql_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced run. Timings are medians over traced
// operations; counters are per-operation means over the first kWindow
// traced operations. Layers a workload does not run read 0.

// Marks a timing the operation did not measure; medians skip it.
constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

struct LayerSample {
  // Timings (ms unless noted).
  double view_tree_ms = kUnset;
  double greedy_ms = kUnset;
  double sqlgen_ms = kUnset;
  double query_ms = 0;
  double bind_ms = 0;
  double tag_decode_ms = kUnset;
  double tag_ms = 0;
  double insert_us = kUnset;
  double queue_wait_ms = kUnset;
  double service_overhead_ms = kUnset;
  double uncovered_ms = kUnset;
  double traced_total_ms = kUnset;  // outer span, minus any decode drain
  // Deterministic counters.
  double oracle_requests = kUnset;  // set when greedy planning ran
  double components = 0;
  EngineCounters engine;
  double wire_bytes = 0;
  double tag_rows = 0;
  double tag_instances = 0;
  double xml_bytes = 0;
  double xml_flushes = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_splices = 0;
  double cache_evictions = 0;
  double cache_resident_bytes = 0;
};

struct LayerRun {
  std::vector<LayerSample> traced;       // in sequence order
  std::vector<double> untraced_ms;       // interleaved untraced publishes
  // Composed publishes made outside the timed loop (republish_delta's
  // cold checks). They feed only the planning and decode metrics.
  std::vector<LayerSample> composed;
  double db_bytes = 0;
  double db_rows = 0;
  double shed = 0;
  double anchor_ms = 0;
  long faults_at_start = 0;  // MinorFaults() as the measured loop starts
};

double MedianOf(const std::vector<LayerSample>& samples,
                double LayerSample::*field) {
  std::vector<double> v;
  for (const LayerSample& s : samples) {
    if (!std::isnan(s.*field)) v.push_back(s.*field);
  }
  return Median(std::move(v));
}

template <typename F>
double WindowMean(const std::vector<LayerSample>& samples, F get) {
  size_t n = std::min(kWindow, samples.size());
  if (n == 0) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += get(samples[i]);
  return sum / static_cast<double>(n);
}

void AddPerLayer(Report* report, const LayerRun& run) {
  const auto& t = run.traced;
  if (t.size() < kWindow) {
    std::fprintf(stderr, "only %zu traced operations (< %zu)\n", t.size(),
                 kWindow);
    report->correct = false;
  }
  auto m = [&](double LayerSample::*field) { return MedianOf(t, field); };
  std::vector<LayerSample> planned = t;
  planned.insert(planned.end(), run.composed.begin(), run.composed.end());
  auto mp = [&](double LayerSample::*field) {
    return MedianOf(planned, field);
  };
  auto w = [&](double LayerSample::*field) {
    return WindowMean(t, [&](const LayerSample& s) { return s.*field; });
  };
  auto we = [&](double EngineCounters::*field) {
    return WindowMean(t, [&](const LayerSample& s) { return s.engine.*field; });
  };
  using S = LayerSample;
  using E = EngineCounters;
  report->Add("host.anchor_ms", run.anchor_ms, "ms");
  report->Add("host.minor_faults_per_op",
              static_cast<double>(MinorFaults() - run.faults_at_start) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "count");
  report->Add("silkroute.view_tree_ms", mp(&S::view_tree_ms), "ms");
  report->Add("silkroute.greedy_ms", mp(&S::greedy_ms), "ms");
  report->Add("silkroute.greedy_oracle_requests", mp(&S::oracle_requests),
              "count");
  report->Add("silkroute.sqlgen_ms", mp(&S::sqlgen_ms), "ms");
  report->Add("silkroute.components", w(&S::components), "count");
  report->Add("engine.query_ms", m(&S::query_ms), "ms");
  report->Add("engine.rows_scanned", we(&E::rows_scanned), "count");
  report->Add("engine.rows_joined", we(&E::rows_joined), "count");
  report->Add("engine.rows_sorted", we(&E::rows_sorted), "count");
  report->Add("engine.hash_joins", we(&E::hash_joins), "count");
  report->Add("engine.keys_encoded", we(&E::keys_encoded), "count");
  report->Add("engine.bind_ms", m(&S::bind_ms), "ms");
  report->Add("engine.wire_bytes", w(&S::wire_bytes), "bytes");
  report->Add("silkroute.tag_decode_ms", mp(&S::tag_decode_ms), "ms");
  report->Add("silkroute.tag_ms", m(&S::tag_ms), "ms");
  report->Add("silkroute.tag_rows_consumed", w(&S::tag_rows), "count");
  report->Add("silkroute.tag_instances", w(&S::tag_instances), "count");
  report->Add("xml.bytes", w(&S::xml_bytes), "bytes");
  report->Add("xml.flushes", w(&S::xml_flushes), "count");
  double hits = w(&S::cache_hits);
  double misses = w(&S::cache_misses);
  report->Add("engine.cache_hits", hits, "count");
  report->Add("engine.cache_misses", misses, "count");
  report->Add("engine.cache_splices", w(&S::cache_splices), "count");
  report->Add("engine.cache_lookups", hits + misses, "count");
  report->Add("engine.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Add("engine.cache_evictions", w(&S::cache_evictions), "count");
  // Resident bytes as the window closes.
  report->Add("engine.cache_resident_bytes",
              t.empty() ? 0
                        : t[std::min(kWindow, t.size()) - 1]
                              .cache_resident_bytes,
              "bytes");
  report->Add("relational.insert_us", m(&S::insert_us), "us");
  report->Add("relational.db_bytes", run.db_bytes, "bytes");
  report->Add("relational.rows", run.db_rows, "count");
  report->Add("service.queue_wait_ms", m(&S::queue_wait_ms), "ms");
  report->Add("service.overhead_ms", m(&S::service_overhead_ms), "ms");
  report->Add("service.shed", run.shed, "count");
  double untraced = Median(run.untraced_ms);
  double traced = m(&S::traced_total_ms);
  report->Add("trace.overhead_pct",
              untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0, "%");
  report->Add("trace.uncovered_ms", m(&S::uncovered_ms), "ms");
}

// ---------------------------------------------------------------------------
// Set-up shared by all workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

std::unique_ptr<Database> GenerateDatabase(uint64_t seed) {
  auto db = std::make_unique<Database>();
  tpch::TpchConfig config;
  config.scale_factor = kScale;
  config.seed = seed;
  Status status = tpch::GenerateTpch(config, db.get());
  if (!status.ok()) Fail("TPC-H generation", status);
  return db;
}

double TotalRows(const Database& db) {
  double rows = 0;
  for (const std::string& name : db.catalog().TableNames()) {
    auto table = db.GetTable(name);
    if (table.ok()) rows += static_cast<double>((*table)->num_rows());
  }
  return rows;
}

// The correctness reference for one view: the digest of its unified-plan
// document, published before any timing starts.
Digest MakeReference(core::Publisher* publisher, std::string_view rxl) {
  core::PublishOptions options;
  options.strategy = core::PlanStrategy::kUnified;
  std::ostringstream out;
  auto result = publisher->Publish(rxl, options, &out);
  if (!result.ok()) Fail("reference publish", result.status());
  std::string xml = std::move(out).str();
  if (xml.empty() || xml.front() != '<') {
    std::fprintf(stderr, "reference document is empty or malformed\n");
    std::exit(1);
  }
  return DigestOf(xml);
}

// ---------------------------------------------------------------------------
// publish_cold: one client, serial engine, no cache; Query 1 over a seeded
// cycle of the paper's plan space.

struct PlanChoice {
  const char* name;
  core::PlanStrategy strategy;
  uint64_t mask;
  core::SqlGenStyle style;
};

constexpr PlanChoice kColdPlans[] = {
    {"greedy", core::PlanStrategy::kGreedy, 0, core::SqlGenStyle::kOuterJoin},
    {"mask_0x1E8", core::PlanStrategy::kExplicitMask, 0x1E8,
     core::SqlGenStyle::kOuterJoin},
    {"fully_partitioned", core::PlanStrategy::kFullyPartitioned, 0,
     core::SqlGenStyle::kOuterJoin},
    {"outer_union_0x1FF", core::PlanStrategy::kExplicitMask, 0x1FF,
     core::SqlGenStyle::kOuterUnion},
};
constexpr size_t kNumColdPlans = std::size(kColdPlans);

core::PublishOptions OptionsFor(const PlanChoice& plan) {
  core::PublishOptions options;
  options.strategy = plan.strategy;
  options.explicit_mask = plan.mask;
  options.style = plan.style;
  return options;
}

// Seeded order of the plans within each cycle.
std::vector<size_t> CycleOrder(Random* rng) {
  std::vector<size_t> order(kNumColdPlans);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Next() % (i + 1)]);
  }
  return order;
}

// Publisher::Publish for one plan, composed from the public calls of each
// layer with a span around every layer: view tree -> greedy planning ->
// permissible mask + partition + SQL generation -> per component query and
// bind -> a separate decode drain of every stream -> tag + XML writer.
Status ComposedPublish(core::Publisher* publisher, const Database& db,
                       const PlanChoice& plan, SpanLog* log, uint64_t request,
                       std::ostream* out, LayerSample* sample) {
  int root = log->Begin("publish", -1, request);
  double covered = 0;

  int span = log->Begin("silkroute.view_tree", root, request);
  auto tree = publisher->BuildViewTree(core::Query1Rxl());
  sample->view_tree_ms = log->End(span);
  covered += sample->view_tree_ms;
  if (!tree.ok()) return tree.status();

  uint64_t mask = plan.mask;
  if (plan.strategy == core::PlanStrategy::kFullyPartitioned) mask = 0;
  if (plan.strategy == core::PlanStrategy::kGreedy) {
    span = log->Begin("silkroute.greedy", root, request);
    core::GreedyParams params;
    params.style = plan.style;
    auto greedy =
        core::GeneratePlanGreedy(*tree, publisher->estimator(), params);
    sample->greedy_ms = log->End(span);
    covered += sample->greedy_ms;
    if (!greedy.ok()) return greedy.status();
    mask = greedy->FullMask();
    sample->oracle_requests = static_cast<double>(greedy->oracle_requests);
  }

  span = log->Begin("silkroute.sqlgen", root, request);
  auto permissible = core::MakePermissible(*tree, mask, plan.style, true,
                                           core::SourceDescription{});
  if (!permissible.ok()) return permissible.status();
  auto partition = core::Partition::FromMask(*tree, *permissible);
  if (!partition.ok()) return partition.status();
  core::SqlGenerator gen(&*tree, plan.style, /*reduce=*/true);
  auto specs = gen.GeneratePlan(*partition);
  sample->sqlgen_ms = log->End(span);
  covered += sample->sqlgen_ms;
  if (!specs.ok()) return specs.status();
  sample->components = static_cast<double>(specs->size());

  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  for (const core::StreamSpec& spec : *specs) {
    span = log->Begin("engine.query", root, request);
    engine::QueryExecutor executor(&db);
    auto relation = executor.ExecuteSql(spec.sql);
    double query_ms = log->End(span);
    sample->query_ms += query_ms;
    if (!relation.ok()) return relation.status();
    sample->engine.Add(executor.stats());

    span = log->Begin("engine.bind", root, request);
    streams.push_back(
        std::make_unique<engine::TupleStream>(std::move(relation).value()));
    sample->bind_ms += log->End(span);
    sample->wire_bytes += static_cast<double>(streams.back()->wire_bytes());
  }
  covered += sample->query_ms + sample->bind_ms;

  span = log->Begin("silkroute.tag_decode", root, request);
  for (auto& stream : streams) {
    while (stream->Next().has_value()) {
    }
    stream->Rewind();
  }
  sample->tag_decode_ms = log->End(span);
  covered += sample->tag_decode_ms;

  span = log->Begin("silkroute.tag", root, request);
  xml::XmlWriter writer(out);
  core::Tagger tagger(&*tree, &writer, core::Tagger::Options{});
  std::vector<core::Tagger::StreamInput> inputs;
  for (size_t i = 0; i < streams.size(); ++i) {
    inputs.push_back({&(*specs)[i], streams[i].get()});
  }
  Status status = tagger.Run(std::move(inputs));
  if (status.ok()) status = writer.Finish();
  sample->tag_ms = log->End(span);
  covered += sample->tag_ms;
  double total = log->End(root);
  if (!status.ok()) return status;

  sample->tag_rows = static_cast<double>(tagger.stats().rows_consumed);
  sample->tag_instances = static_cast<double>(tagger.stats().instances_emitted);
  sample->xml_bytes = static_cast<double>(writer.bytes_written());
  sample->xml_flushes = static_cast<double>(writer.flushes());
  sample->uncovered_ms = total - covered;
  // The decode drain is a measurement pass the real publish does not make.
  sample->traced_total_ms = total - sample->tag_decode_ms;
  return Status::OK();
}

struct ColdSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<core::Publisher> publisher;
};

ColdSetup SetUpCold(uint64_t seed) {
  ColdSetup s;
  s.db = GenerateDatabase(seed);
  s.publisher = std::make_unique<core::Publisher>(s.db.get());
  auto tree = s.publisher->BuildViewTree(core::Query1Rxl());
  if (!tree.ok()) Fail("view tree", tree.status());
  return s;
}

// Runs `setup` repeatedly (see kMinSetups), keeping the last result;
// returns the time of each set-up in seconds.
template <typename T, typename F>
std::vector<double> RepeatSetup(F setup, T* kept) {
  std::vector<double> times;
  double spent = 0;
  while (times.size() < kMinSetups || spent < kMinSetupSeconds) {
    *kept = T();  // free the previous database before building the next
    auto start = Clock::now();
    *kept = setup();
    times.push_back(MsBetween(start, Clock::now()) / 1000.0);
    spent += times.back();
  }
  return times;
}

void RunPublishCold(const Args& args, Report* report, SpanLog* log) {
  double anchor_start = HostAnchorMs();
  ColdSetup env;
  std::vector<double> setup_s =
      RepeatSetup([&] { return SetUpCold(args.seed); }, &env);
  Digest ref = MakeReference(env.publisher.get(), core::Query1Rxl());

  Random rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<double> latencies;
  std::vector<std::vector<double>> per_plan(kNumColdPlans);
  LayerRun layers;
  layers.faults_at_start = MinorFaults();
  auto start = Clock::now();
  uint64_t request = 0;
  // Whole cycles only, so every plan is published equally often.
  while (MsBetween(start, Clock::now()) < args.seconds * 1000.0) {
    for (size_t p : CycleOrder(&rng)) {
      const PlanChoice& plan = kColdPlans[p];
      ++report->attempted;
      ++request;
      DigestStream out;
      if (args.trace) {
        LayerSample sample;
        Status status = ComposedPublish(env.publisher.get(), *env.db, plan,
                                        log, request, &out, &sample);
        if (status.ok() && out.digest() == ref) {
          layers.traced.push_back(sample);
        } else {
          ++report->failed;
        }
        // The same plan through Publisher::Publish, for the overhead.
        ++report->attempted;
        DigestStream plain;
        auto t0 = Clock::now();
        auto result =
            env.publisher->Publish(core::Query1Rxl(), OptionsFor(plan), &plain);
        double ms = MsBetween(t0, Clock::now());
        if (result.ok() && plain.digest() == ref) {
          layers.untraced_ms.push_back(ms);
        } else {
          ++report->failed;
        }
        continue;
      }
      auto t0 = Clock::now();
      auto result =
          env.publisher->Publish(core::Query1Rxl(), OptionsFor(plan), &out);
      double ms = MsBetween(t0, Clock::now());
      if (!result.ok() || !(out.digest() == ref)) {
        ++report->failed;
        continue;
      }
      latencies.push_back(ms);
      per_plan[p].push_back(ms);
    }
  }
  double wall_ms = MsBetween(start, Clock::now());
  double anchor_end = HostAnchorMs();
  std::fprintf(stderr, "host anchor: %.2f ms start, %.2f ms end\n",
               anchor_start, anchor_end);
  if (args.trace) {
    layers.db_bytes = static_cast<double>(env.db->TotalByteSize());
    layers.db_rows = TotalRows(*env.db);
    layers.anchor_ms = Median({anchor_start, anchor_end});
    AddPerLayer(report, layers);
    return;
  }
  for (size_t p = 0; p < kNumColdPlans; ++p) {
    std::fprintf(stderr, "plan %-18s n=%3zu p50 %8.2f ms\n", kColdPlans[p].name,
                 per_plan[p].size(), Median(per_plan[p]));
  }
  AddEndToEnd(report, latencies, wall_ms, setup_s);
}

// ---------------------------------------------------------------------------
// republish_delta: one client, result cache on, Query 1 fully partitioned;
// one validated Region insert with a fresh seeded key before each publish.

struct DeltaSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<core::Publisher> publisher;
  std::unique_ptr<engine::ResultCache> cache;
};

core::PublishOptions DeltaOptions(engine::ResultCache* cache) {
  core::PublishOptions options;
  options.strategy = core::PlanStrategy::kFullyPartitioned;
  options.result_cache = cache;
  return options;
}

DeltaSetup SetUpDelta(uint64_t seed) {
  DeltaSetup s;
  s.db = GenerateDatabase(seed);
  s.publisher = std::make_unique<core::Publisher>(s.db.get());
  auto tree = s.publisher->BuildViewTree(core::Query1Rxl());
  if (!tree.ok()) Fail("view tree", tree.status());
  engine::ResultCache::Options cache_options;
  cache_options.budget_bytes = kCacheBudget;
  s.cache = std::make_unique<engine::ResultCache>(cache_options);
  // Prime the fragment cache with one cold publish.
  DigestStream sink;
  auto primed = s.publisher->Publish(core::Query1Rxl(),
                                     DeltaOptions(s.cache.get()), &sink);
  if (!primed.ok()) Fail("cache priming", primed.status());
  return s;
}

// Fresh Region keys from the seed, never colliding with the generated
// regions (0..4) or with each other.
class DeltaKeys {
 public:
  explicit DeltaKeys(uint64_t seed) : rng_(seed ^ 0xD1B54A32D192ED03ull) {}

  Tuple Next() {
    int64_t key = 0;
    do {
      key = 1000 + static_cast<int64_t>(rng_.Next() % (1ull << 40));
    } while (!used_.insert(key).second);
    return Tuple{Value::Int64(key),
                 Value::String("DELTA-" + std::to_string(key))};
  }

 private:
  Random rng_;
  std::set<int64_t> used_;
};

void RunRepublishDelta(const Args& args, Report* report, SpanLog* log) {
  double anchor_start = HostAnchorMs();
  DeltaSetup env;
  std::vector<double> setup_s =
      RepeatSetup([&] { return SetUpDelta(args.seed); }, &env);
  Digest ref = MakeReference(env.publisher.get(), core::Query1Rxl());
  double db_bytes = static_cast<double>(env.db->TotalByteSize());
  double db_rows = TotalRows(*env.db);
  auto region = env.db->GetTable("Region");
  if (!region.ok()) Fail("Region table", region.status());

  CountingExecutor counting(env.db.get());
  core::PublishOptions cached = DeltaOptions(env.cache.get());
  core::PublishOptions traced = cached;
  traced.executor = &counting;

  DeltaKeys keys(args.seed);
  std::vector<double> latencies;
  LayerRun layers;
  layers.db_bytes = db_bytes;
  layers.db_rows = db_rows;
  layers.faults_at_start = MinorFaults();
  auto start = Clock::now();
  double check_ms = 0;  // untimed cold publishes, left out of the rate
  size_t cold_checks = 0;
  size_t iteration = 0;
  while (MsBetween(start, Clock::now()) < args.seconds * 1000.0) {
    ++iteration;
    ++report->attempted;
    // In traced runs, odd iterations are traced and even ones measure the
    // same iteration untraced, for the overhead.
    bool traced_op = args.trace && iteration % 2 == 1;
    uint64_t request = iteration;
    int root = traced_op ? log->Begin("iteration", -1, request) : -1;

    Tuple row = keys.Next();
    int span = traced_op ? log->Begin("relational.insert", root, request) : -1;
    auto t0 = Clock::now();
    Status inserted = (*region)->Insert(std::move(row));
    double insert_ms = MsBetween(t0, Clock::now());
    if (traced_op) log->End(span);
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert: %s\n", inserted.ToString().c_str());
      ++report->failed;
      if (traced_op) log->End(root);
      continue;
    }

    EngineCounters engine_before = counting.total();
    engine::ResultCache::Stats cache_before = env.cache->stats();
    DigestStream out;
    span = traced_op ? log->Begin("publish", root, request) : -1;
    t0 = Clock::now();
    auto result = env.publisher->Publish(core::Query1Rxl(),
                                         traced_op ? traced : cached, &out);
    double ms = MsBetween(t0, Clock::now());
    if (traced_op) {
      log->End(span);
      log->End(root);
    }
    bool ok = result.ok() && out.digest() == ref;
    // Untimed: the cached document must equal an uncached publish of the
    // same database state, by each plan of the paper's plan space in turn.
    // Traced runs compose that publish from each layer's public calls.
    if (ok && iteration % kColdCheckEvery == 0) {
      auto check_start = Clock::now();
      const PlanChoice& plan = kColdPlans[cold_checks++ % kNumColdPlans];
      DigestStream cold;
      if (args.trace) {
        LayerSample sample;
        Status status = ComposedPublish(env.publisher.get(), *env.db, plan,
                                        log, request, &cold, &sample);
        ok = status.ok() && cold.digest() == out.digest();
        if (ok) layers.composed.push_back(sample);
      } else {
        auto cold_result =
            env.publisher->Publish(core::Query1Rxl(), OptionsFor(plan), &cold);
        ok = cold_result.ok() && cold.digest() == out.digest();
      }
      check_ms += MsBetween(check_start, Clock::now());
    }
    if (!ok) {
      ++report->failed;
      continue;
    }
    if (!args.trace) {
      latencies.push_back(ms);
      continue;
    }
    if (!traced_op) {
      layers.untraced_ms.push_back(ms);
      continue;
    }
    const core::PlanMetrics& m = result->metrics;
    engine::ResultCache::Stats cache_after = env.cache->stats();
    LayerSample sample;
    sample.insert_us = insert_ms * 1000.0;
    sample.query_ms = m.query_ms;
    sample.bind_ms = m.bind_ms;
    sample.tag_ms = m.tag_ms;
    sample.uncovered_ms = ms - m.total_ms();
    sample.traced_total_ms = ms;
    sample.components = static_cast<double>(m.num_streams);
    EngineCounters engine_after = counting.total();
    sample.engine.rows_scanned =
        engine_after.rows_scanned - engine_before.rows_scanned;
    sample.engine.rows_joined =
        engine_after.rows_joined - engine_before.rows_joined;
    sample.engine.rows_sorted =
        engine_after.rows_sorted - engine_before.rows_sorted;
    sample.engine.hash_joins =
        engine_after.hash_joins - engine_before.hash_joins;
    sample.engine.keys_encoded =
        engine_after.keys_encoded - engine_before.keys_encoded;
    sample.wire_bytes = static_cast<double>(m.wire_bytes);
    sample.tag_rows = static_cast<double>(m.tagger.rows_consumed);
    sample.tag_instances = static_cast<double>(m.tagger.instances_emitted);
    sample.xml_bytes = static_cast<double>(m.xml_bytes);
    sample.xml_flushes = static_cast<double>(m.xml_flushes);
    sample.cache_hits = static_cast<double>(m.cache_hits);
    sample.cache_misses = static_cast<double>(m.cache_misses);
    sample.cache_splices = static_cast<double>(m.cache_splices);
    sample.cache_evictions =
        static_cast<double>(cache_after.evictions - cache_before.evictions);
    sample.cache_resident_bytes =
        static_cast<double>(cache_after.resident_bytes);
    layers.traced.push_back(sample);
  }
  double wall_ms = MsBetween(start, Clock::now()) - check_ms;
  double anchor_end = HostAnchorMs();
  std::fprintf(stderr, "host anchor: %.2f ms start, %.2f ms end\n",
               anchor_start, anchor_end);
  if (args.trace) {
    layers.anchor_ms = Median({anchor_start, anchor_end});
    AddPerLayer(report, layers);
    return;
  }
  AddEndToEnd(report, latencies, wall_ms, setup_s);
}

// ---------------------------------------------------------------------------
// service_mix: PublishingService with 2 workers and 2 closed-loop clients;
// Query 1 and Query 2 (greedy) in a seeded order, no cache, serial engine.

constexpr size_t kServiceWorkers = 2;
constexpr size_t kServiceClients = 2;

struct ServiceSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<service::PublishingService> service;
};

service::ServiceOptions MixServiceOptions(engine::SqlExecutor* executor) {
  service::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.engine_threads = 1;
  options.executor = executor;
  // Two closed-loop clients never hold more than two requests; these
  // limits sit far above that, so nothing is shed.
  options.admission.max_pending_requests = 8 * kServiceClients;
  return options;
}

ServiceSetup SetUpService(uint64_t seed) {
  ServiceSetup s;
  s.db = GenerateDatabase(seed);
  s.service = std::make_unique<service::PublishingService>(
      s.db.get(), MixServiceOptions(nullptr));
  for (std::string_view rxl : {core::Query1Rxl(), core::Query2Rxl()}) {
    auto tree = s.service->publisher()->BuildViewTree(rxl);
    if (!tree.ok()) Fail("view tree", tree.status());
  }
  return s;
}

// Seeded request sequence: each consecutive pair holds Query 1 and Query 2
// in a seeded order.
int QueryAt(uint64_t seed, size_t index) {
  Random rng(seed * 0x2545F4914F6CDD1Dull + (index / 2) + 1);
  return static_cast<int>((rng.Next() + index) & 1);
}

struct ServiceRecord {
  size_t index = 0;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0;
  core::PlanMetrics metrics;
  double elapsed_ms = 0;
};

void RunServiceMix(const Args& args, Report* report, SpanLog* log) {
  double anchor_start = HostAnchorMs();
  ServiceSetup env;
  std::vector<double> setup_s =
      RepeatSetup([&] { return SetUpService(args.seed); }, &env);
  Digest refs[2];
  {
    core::Publisher publisher(env.db.get());
    refs[0] = MakeReference(&publisher, core::Query1Rxl());
    refs[1] = MakeReference(&publisher, core::Query2Rxl());
  }
  const std::string_view rxls[2] = {core::Query1Rxl(), core::Query2Rxl()};

  // Traced runs send odd requests through a second service whose
  // connection counts executor work; even requests measure the overhead.
  CountingExecutor counting(env.db.get());
  std::unique_ptr<service::PublishingService> traced_service;
  if (args.trace) {
    traced_service = std::make_unique<service::PublishingService>(
        env.db.get(), MixServiceOptions(&counting));
  }

  std::atomic<size_t> next{0};
  std::mutex records_mu;
  std::vector<ServiceRecord> records;
  LayerRun layers;
  layers.faults_at_start = MinorFaults();
  auto start = Clock::now();
  auto client = [&] {
    std::vector<ServiceRecord> mine;
    while (true) {
      size_t index = next.fetch_add(1);
      if (MsBetween(start, Clock::now()) >= args.seconds * 1000.0) break;
      int query = QueryAt(args.seed, index);
      ServiceRecord record;
      record.index = index;
      record.traced = args.trace && index % 2 == 1;
      service::PublishingService* target =
          record.traced ? traced_service.get() : env.service.get();
      service::ServiceRequest request;
      request.rxl = std::string(rxls[query]);
      int span = record.traced ? log->Begin("request", -1, index) : -1;
      auto t0 = Clock::now();
      auto ticket = target->Submit(std::move(request));
      if (ticket.ok()) {
        const service::ServiceResponse& response = (*ticket)->Wait();
        record.latency_ms = MsBetween(t0, Clock::now());
        record.ok =
            response.status.ok() && DigestOf(response.xml) == refs[query];
        record.metrics = response.result.metrics;
        record.elapsed_ms = response.elapsed_ms;
      }
      if (record.traced) log->End(span);
      mine.push_back(std::move(record));
    }
    std::lock_guard<std::mutex> lock(records_mu);
    for (auto& r : mine) records.push_back(std::move(r));
  };
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kServiceClients; ++i) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  double wall_ms = MsBetween(start, Clock::now());
  double anchor_end = HostAnchorMs();
  std::fprintf(stderr, "host anchor: %.2f ms start, %.2f ms end\n",
               anchor_start, anchor_end);

  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  std::vector<double> latencies;
  for (const ServiceRecord& r : records) {
    ++report->attempted;
    if (!r.ok) {
      ++report->failed;
      continue;
    }
    if (!args.trace) {
      latencies.push_back(r.latency_ms);
      continue;
    }
    if (!r.traced) {
      layers.untraced_ms.push_back(r.latency_ms);
      continue;
    }
    const core::PlanMetrics& m = r.metrics;
    LayerSample sample;
    sample.query_ms = m.query_ms;
    sample.bind_ms = m.bind_ms;
    sample.tag_ms = m.tag_ms;
    sample.queue_wait_ms = 0;
    for (const core::ComponentOutcome& c : m.components) {
      sample.queue_wait_ms += c.queue_wait_ms;
    }
    sample.service_overhead_ms = r.elapsed_ms - m.total_ms();
    sample.uncovered_ms = r.latency_ms - m.total_ms();
    sample.traced_total_ms = r.latency_ms;
    sample.components = static_cast<double>(m.num_streams);
    sample.engine = counting.ForSql(m.sql);
    sample.wire_bytes = static_cast<double>(m.wire_bytes);
    sample.tag_rows = static_cast<double>(m.tagger.rows_consumed);
    sample.tag_instances = static_cast<double>(m.tagger.instances_emitted);
    sample.xml_bytes = static_cast<double>(m.xml_bytes);
    sample.xml_flushes = static_cast<double>(m.xml_flushes);
    layers.traced.push_back(std::move(sample));
  }
  if (args.trace) {
    for (auto* svc : {traced_service.get(), env.service.get()}) {
      service::AdmissionMetrics admission = svc->metrics().admission;
      layers.shed += static_cast<double>(admission.shed_requests +
                                         admission.shed_queries +
                                         admission.shed_memory);
    }
    layers.db_bytes = static_cast<double>(env.db->TotalByteSize());
    layers.db_rows = TotalRows(*env.db);
    layers.anchor_ms = Median({anchor_start, anchor_end});
    traced_service->Shutdown();
    env.service->Shutdown();
    AddPerLayer(report, layers);
    return;
  }
  env.service->Shutdown();
  AddEndToEnd(report, latencies, wall_ms, setup_s);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace silkroute::perfbench

int main(int argc, char** argv) {
  using namespace silkroute::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  SpanLog log(Clock::now());
  Report report;
  if (args.workload == "publish_cold") {
    RunPublishCold(args, &report, &log);
  } else if (args.workload == "republish_delta") {
    RunRepublishDelta(args, &report, &log);
  } else if (args.workload == "service_mix") {
    RunServiceMix(args, &report, &log);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (report.failed > 0) report.correct = false;
  if (args.trace && !args.spans_path.empty() && !log.Write(args.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 args.spans_path.c_str());
    return 1;
  }
  report.Print();
  return 0;
}
