// Result-cache benchmark: the cost of a publish across the cache states the
// middle-ware scenario cycles through (DESIGN.md §15).
//
//   cold         -- no cache: every component query executes, binds, tags.
//   warm-doc     -- unchanged view republished through a warm cache: the
//                   whole document is served from one lookup (the ≥5x
//                   speedup target of the cache work).
//   incremental  -- one table received a delta row: only the components
//                   naming it re-execute; every other fragment is spliced
//                   from cache by the deterministic tagger merge.
//   mix-95-5     -- the paper's read-heavy serving loop: a run of publishes
//                   where 1 in 20 is preceded by a table mutation.
//
// Environment knobs (on top of the bench_util scales):
//   SILK_REPEAT     -- repetitions per measured state, fastest kept (default 3)
//   SILK_CACHE_MIX  -- publishes in the 95/5 mix (default 100)
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "engine/result_cache.h"
#include "silkroute/queries.h"

namespace silkroute::bench {
namespace {

core::PublishOptions BaseOptions() {
  core::PublishOptions options;
  // Fully partitioned = one query per view-tree node: the most component
  // boundaries, hence the sharpest delta attribution and the most splicing.
  options.strategy = core::PlanStrategy::kFullyPartitioned;
  options.document_element = "suppliers";
  return options;
}

double PublishOnce(core::Publisher& publisher,
                   const core::PublishOptions& options,
                   core::PlanMetrics* metrics_out = nullptr) {
  std::ostringstream sink;
  Timer timer;
  auto result = publisher.Publish(std::string(core::Query1Rxl()), options,
                                  &sink);
  double elapsed = timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  if (metrics_out != nullptr) *metrics_out = result->metrics;
  return elapsed;
}

// Appends a duplicate of the table's first row: the smallest delta that
// bumps its version and dirties every component naming it.
void AppendDeltaRow(Database* db, const std::string& table_name) {
  auto table = db->GetTable(table_name);
  if (!table.ok() || (*table)->num_rows() == 0) {
    std::fprintf(stderr, "no delta row available for '%s'\n",
                 table_name.c_str());
    std::exit(1);
  }
  Tuple row = (*table)->Row(0);
  Status inserted = (*table)->InsertUnchecked(std::move(row));
  if (!inserted.ok()) {
    std::fprintf(stderr, "delta row rejected: %s\n",
                 inserted.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace
}  // namespace silkroute::bench

int main() {
  using namespace silkroute;
  using namespace silkroute::bench;

  double scale = EnvScale("SILK_SCALE_A", 0.025);
  int repeat = EnvInt("SILK_REPEAT", 3);
  int mix_publishes = EnvInt("SILK_CACHE_MIX", 100);
  auto db = MakeDatabase(scale);
  core::Publisher publisher(db.get());
  std::printf("%s", Header("Result cache, Query 1, scale " +
                           std::to_string(scale)));

  BenchReport report("cache");

  // Cold: no cache at all — the reference the warm rows are read against.
  core::PlanMetrics cold_metrics;
  double cold_ms = 1e300;
  for (int i = 0; i < repeat; ++i) {
    cold_ms = std::min(cold_ms,
                       PublishOnce(publisher, BaseOptions(), &cold_metrics));
  }
  std::printf("cold         %8.2f ms  %zu components  %zu rows  %zu xml bytes\n",
              cold_ms, cold_metrics.num_streams, cold_metrics.rows,
              cold_metrics.xml_bytes);
  report.Add("cold",
             {{"publish_ms", cold_ms},
              {"components", static_cast<double>(cold_metrics.num_streams)},
              {"rows", static_cast<double>(cold_metrics.rows)},
              {"xml_bytes", static_cast<double>(cold_metrics.xml_bytes)}});

  engine::ResultCache cache(
      engine::ResultCache::Options{64ull << 20, 8, nullptr});
  core::PublishOptions cached = BaseOptions();
  cached.result_cache = &cache;
  PublishOnce(publisher, cached);  // prime fragments + document entry

  // Warm: nothing changed, so the republish is one document-cache lookup.
  core::PlanMetrics warm_metrics;
  double warm_ms = 1e300;
  for (int i = 0; i < repeat; ++i) {
    warm_ms = std::min(warm_ms, PublishOnce(publisher, cached, &warm_metrics));
  }
  double warm_speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  std::printf("warm-doc     %8.2f ms  doc_hit %d  speedup %.1fx%s\n", warm_ms,
              warm_metrics.served_from_doc_cache ? 1 : 0, warm_speedup,
              warm_speedup >= 5.0 ? "" : "  (BELOW 5x TARGET)");
  report.Add("warm-doc",
             {{"publish_ms", warm_ms},
              {"doc_hit", warm_metrics.served_from_doc_cache ? 1.0 : 0.0}});

  // Incremental: dirty one table per publish; only its components re-run.
  core::PlanMetrics inc_metrics;
  double inc_ms = 1e300;
  for (int i = 0; i < repeat; ++i) {
    AppendDeltaRow(db.get(), "Region");
    core::PlanMetrics m;
    double ms = PublishOnce(publisher, cached, &m);
    if (ms < inc_ms) inc_ms = ms;
    inc_metrics = m;  // counters identical every iteration
  }
  std::printf("incremental  %8.2f ms  re-exec %zu / %zu components  "
              "spliced %zu  speedup %.1fx\n",
              inc_ms, inc_metrics.cache_misses,
              inc_metrics.cache_misses + inc_metrics.cache_hits,
              inc_metrics.cache_splices, inc_ms > 0 ? cold_ms / inc_ms : 0);
  report.Add("incremental",
             {{"publish_ms", inc_ms},
              {"hits", static_cast<double>(inc_metrics.cache_hits)},
              {"misses", static_cast<double>(inc_metrics.cache_misses)},
              {"splices", static_cast<double>(inc_metrics.cache_splices)}});

  // Read-heavy mix: 1 mutation per 20 publishes (the serving steady state).
  auto before = cache.stats();
  Timer mix_timer;
  for (int i = 0; i < mix_publishes; ++i) {
    if (i % 20 == 19) AppendDeltaRow(db.get(), "Region");
    PublishOnce(publisher, cached);
  }
  double mix_ms = mix_timer.ElapsedMillis();
  auto after = cache.stats();
  double mix_rps = mix_ms > 0 ? mix_publishes / (mix_ms / 1000.0) : 0;
  std::printf("mix-95-5     %8.2f ms  %d publishes  %7.1f req/s  "
              "hits %llu  misses %llu  splices %llu\n",
              mix_ms, mix_publishes, mix_rps,
              static_cast<unsigned long long>(after.hits - before.hits),
              static_cast<unsigned long long>(after.misses - before.misses),
              static_cast<unsigned long long>(after.splices - before.splices));
  report.Add("mix-95-5",
             {{"wall_ms", mix_ms},
              {"throughput_rps", mix_rps},
              {"hits", static_cast<double>(after.hits - before.hits)},
              {"misses", static_cast<double>(after.misses - before.misses)},
              {"splices", static_cast<double>(after.splices - before.splices)}});
  return 0;
}
