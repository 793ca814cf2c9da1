// Table 4 (extension) — the cost of the always-on telemetry plane: the same sharded-KV
// workload run at each obs::Level, with the plane's own overhead measured by the plane's
// own counters.
//
// Scenario (cluster_bench.h topology, 4 shards): each round is 32 striped GETs through a
// static router, with every machine's ObsRoot dialed to the point's level first:
//   kOff      no recording anywhere (the baseline the overhead gate compares against)
//   kMetrics  event-plane histograms + registry counters record on every event
//   kTracing  additionally: trace ids ride every RPC frame, client/server/local span
//             records are written per hop (the "always on" default)
//
// What it shows: tracing's ops/s against kOff (the RpcHeader carries the trace fields at
// every level, so the wire cost is constant), zero steady-state mallocs and zero Messenger
// control locks at every level, and spans recorded at kTracing only.
//
// Emits the "observability" section of BENCH_observability.json (40 measured rounds; with
// --smoke, 10 rounds into "observability_smoke"); tools/validate_bench_json.py
// validate_observability gates both.
#include <cstring>

#include "bench/cluster_bench.h"
#include "src/obs/histogram.h"

namespace ebbrt {
namespace bench {
namespace {

constexpr std::size_t kDepth = 32;

const char* LevelName(obs::Level level) {
  switch (level) {
    case obs::Level::kOff: return "off";
    case obs::Level::kMetrics: return "metrics";
    case obs::Level::kTracing: return "tracing";
  }
  return "?";
}

Row RunObsPoint(obs::Level level, std::size_t measured_rounds, bool* completed) {
  obs::Histogram latency;  // per-GET latency in the measured window
  std::uint64_t ops = 0;
  Cluster cluster({.obs_level = level});
  bool done = cluster.Run({
      .ops_per_round = kDepth,
      .issue =
          [&cluster, &latency, &ops](std::size_t first) {
            std::vector<Future<void>> round;
            round.reserve(kDepth);
            for (std::size_t i = 0; i < kDepth; ++i) {
              std::uint64_t t0 = cluster.bed.world().Now();
              round.push_back(
                  cluster.router->Get(BenchKey((first + i) % kKeySpace))
                      .Then([&cluster, &latency, &ops,
                             t0](Future<memcached::ShardRouter::GetResult> f) {
                        f.Get();
                        if (cluster.window.marked()) {
                          latency.Record(cluster.bed.world().Now() - t0);
                          ops++;
                        }
                      }));
            }
            return WhenAll(std::move(round));
          },
      .more = Rounds(measured_rounds),
  });
  *completed = *completed && done;
  const Window& w = cluster.window;
  return Row{{"level", LevelName(level)},
             {"ops", ops},
             {"ops_per_sec", w.ops_per_sec(ops), 0}} +
         LatencyCols(latency.TakeSnapshot()) +
         Row{{"heap_allocs", w.delta.heap_allocs},
             {"allocs_per_op", PerOp(w.delta.heap_allocs, ops), 4},
             {"control_locks", w.delta.control_locks},
             {"spans", w.delta.spans},
             {"virtual_ns", w.delta.virtual_ns}};
}

}  // namespace
}  // namespace bench
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::size_t rounds = smoke ? 10 : 40;
  bool completed = true;
  std::vector<Row> rows;
  for (ebbrt::obs::Level level : {ebbrt::obs::Level::kOff, ebbrt::obs::Level::kMetrics,
                                  ebbrt::obs::Level::kTracing}) {
    rows.push_back(RunObsPoint(level, rounds, &completed));
  }
  std::printf("# telemetry-plane cost: depth-%zu sharded GETs at each obs level "
              "(%zu measured rounds)\n", kDepth, rounds);
  EmitRows("BENCH_observability.json", smoke ? "observability_smoke" : "observability",
           rows);
  return completed ? 0 : 1;
}
