// Figure 9 (extension) — sharded memcached over the lock-free distributed dispatch plane:
// throughput and per-op wire/allocation cost as the key space is consistent-hashed across
// {1, 2, 4} backend shards, swept over pipeline depth {1, 8, 32}.
//
// Scenario (cluster_bench.h topology): each round is `depth` striped GETs through a static
// router, and the loop waits for the whole round before issuing the next.
//
// What the sweep shows:
//   * ops/s scales with shards: each shard charges kServiceNs of modeled service time and
//     shards run in parallel, so a depth-32 round's service time divides by N.
//   * segments/op stays collapsed: the router's fan-out corks per shard (one request
//     segment per shard per round; replies cork the same way on each shard).
//   * allocs/op stays 0.0: the Messenger path is pooled end to end.
//   * per-shard balance: the FNV-1a ring keeps max/mean - 1 small for the striped keys.
//
// Emits the "sharded_kv" (or, with --smoke, the one-point "sharded_kv_smoke") section of
// BENCH_sharded_kv.json; tools/validate_bench_json.py validate_sharded_kv gates both.
#include <cstring>

#include "bench/cluster_bench.h"

namespace ebbrt {
namespace bench {
namespace {

// One (shards, depth) point; `requests` measured GETs after the warmup.
Row RunShardPoint(std::size_t num_shards, std::size_t depth, std::size_t requests,
                  bool* completed) {
  Cluster cluster({.shards = num_shards});
  bool done = cluster.Run({
      .ops_per_round = depth,
      .issue =
          [&cluster, depth](std::size_t first) {
            std::vector<Future<void>> round;
            round.reserve(depth);
            for (std::size_t i = 0; i < depth; ++i) {
              round.push_back(cluster.router->Get(BenchKey((first + i) % kKeySpace))
                                  .Then([](Future<memcached::ShardRouter::GetResult> f) {
                                    f.Get();
                                  }));
            }
            return WhenAll(std::move(round));
          },
      .more = Rounds(requests / depth),
      .restripe_at_mark = true,
  });
  *completed = *completed && done;
  if (!done) {
    requests = 0;
  }
  const Window& w = cluster.window;
  std::uint64_t total_ops = 0;
  std::uint64_t max_ops = 0;
  for (std::uint64_t ops : w.delta.shard_ops) {
    total_ops += ops;
    max_ops = std::max(max_ops, ops);
  }
  double imbalance = 0;
  if (total_ops != 0) {
    double mean = static_cast<double>(total_ops) / static_cast<double>(num_shards);
    imbalance = static_cast<double>(max_ops) / mean - 1.0;
  }
  return {{"shards", num_shards},
          {"pipeline", depth},
          {"requests", requests},
          {"ops_per_sec", w.ops_per_sec(requests), 0},
          {"tx_data_segments", w.delta.tx_data_segments},
          {"segments_per_op", PerOp(w.delta.tx_data_segments, requests), 3},
          {"heap_allocs", w.delta.heap_allocs},
          {"allocs_per_op", PerOp(w.delta.heap_allocs, requests), 4},
          {"pool_hit_rate", w.pool_hit_rate(), 4},
          {"shard_ops", w.delta.shard_ops},
          {"imbalance", imbalance, 4},
          {"control_locks", w.delta.control_locks},
          {"virtual_ns", w.delta.virtual_ns}};
}

}  // namespace
}  // namespace bench
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool completed = true;
  std::vector<Row> rows;
  if (smoke) {
    rows.push_back(RunShardPoint(/*shards=*/4, /*depth=*/32, /*requests=*/256, &completed));
  } else {
    for (std::size_t shards : {1, 2, 4}) {
      for (std::size_t depth : {1, 8, 32}) {
        rows.push_back(RunShardPoint(shards, depth, /*requests=*/512, &completed));
      }
    }
  }
  std::printf("# sharded memcached (consistent-hash router over GlobalIdMap-discovered"
              " shards)\n");
  EmitRows("BENCH_sharded_kv.json", smoke ? "sharded_kv_smoke" : "sharded_kv", rows);
  return completed ? 0 : 1;
}
