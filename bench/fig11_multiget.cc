// Figure 11 (extension) — bulk RPC: zero-copy scatter-gather MultiGet across shards.
// Per-key wire/allocation/latency cost as the batch size grows, at {1, 4} shards.
//
// Scenario (cluster_bench.h topology): each round is ONE MultiGet of `batch` striped keys
// through a static router, and the loop waits for the whole batch before issuing the next.
//
// What the sweep shows:
//   * segments/key COLLAPSES with batch: a batch-1 round pays a request and reply segment
//     per key; a batch-64 round pays one request and one reply segment per SHARD touched
//     (the router ships exactly one kShardOpMultiGet frame per shard, corked).
//   * ns/key drops with batch: every key still charges kServiceNs of modeled shard service
//     time (the batch is N logical requests — no discounted work), so what the batch
//     eliminates is the per-round-trip event/wire overhead, which is the honest win.
//   * allocs/key stays 0.0 and the values cross zero-copy: replies are carved into per-key
//     views of the received chain (IOBufQueue::Split), never memcpy'd.
//
// Emits the "multiget" section of BENCH_multiget.json (with --smoke, "multiget_smoke": the
// 4-shard batch-1 and batch-64 points); tools/validate_bench_json.py validate_multiget
// gates both.
#include <cstring>

#include "bench/cluster_bench.h"

namespace ebbrt {
namespace bench {
namespace {

// One (shards, batch) point; `keys` measured keys after the warmup.
Row RunMultiGetPoint(std::size_t num_shards, std::size_t batch, std::size_t keys,
                     bool* completed) {
  std::uint64_t hits = 0;  // found results in the measured window (must equal keys)
  Cluster cluster({.shards = num_shards});
  bool done = cluster.Run({
      .ops_per_round = batch,
      .issue =
          [&cluster, &hits, batch](std::size_t first) {
            std::vector<std::string> key_storage;
            key_storage.reserve(batch);
            for (std::size_t i = 0; i < batch; ++i) {
              key_storage.push_back(BenchKey((first + i) % kKeySpace));
            }
            std::vector<std::string_view> round(key_storage.begin(), key_storage.end());
            return cluster.router->MultiGet(round).Then(
                [&cluster, &hits, key_storage = std::move(key_storage)](
                    Future<std::vector<memcached::ShardRouter::GetResult>> f) {
                  for (const memcached::ShardRouter::GetResult& r : f.Get()) {
                    if (r.found && cluster.window.marked()) {
                      hits++;
                    }
                  }
                });
          },
      .more = Rounds(keys / batch),
      .restripe_at_mark = true,
  });
  *completed = *completed && done;
  if (!done) {
    keys = 0;
  }
  const Window& w = cluster.window;
  return {{"shards", num_shards},
          {"batch", batch},
          {"keys", keys},
          {"ops_per_sec", w.ops_per_sec(keys), 0},
          {"ns_per_key", PerOp(w.delta.virtual_ns, keys), 1},
          {"tx_data_segments", w.delta.tx_data_segments},
          {"segments_per_op", PerOp(w.delta.tx_data_segments, keys), 3},
          {"heap_allocs", w.delta.heap_allocs},
          {"allocs_per_op", PerOp(w.delta.heap_allocs, keys), 4},
          {"pool_hit_rate", w.pool_hit_rate(), 4},
          {"hits", hits},
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
    rows.push_back(RunMultiGetPoint(/*shards=*/4, /*batch=*/1, /*keys=*/128, &completed));
    rows.push_back(RunMultiGetPoint(/*shards=*/4, /*batch=*/64, /*keys=*/256, &completed));
  } else {
    for (std::size_t shards : {1, 4}) {
      for (std::size_t batch : {1, 8, 64}) {
        rows.push_back(RunMultiGetPoint(shards, batch, /*keys=*/512, &completed));
      }
    }
  }
  std::printf("# bulk RPC (scatter-gather MultiGet over the consistent-hash router)\n");
  EmitRows("BENCH_multiget.json", smoke ? "multiget_smoke" : "multiget", rows);
  return completed ? 0 : 1;
}
