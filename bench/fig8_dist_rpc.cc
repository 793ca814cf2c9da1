// Figure 8 (extension) — the cost of the hybrid structure: closed-loop function-shipping
// RPCs from a native instance to the hosted frontend, swept over pipeline depth {1, 8, 32}.
//
// Each round issues `depth` RPCs inside one event — alternating GlobalIdMap::Get (naming
// lookup) and FileSystem::ReadFile (shipped POSIX read) — and waits for the whole round
// before issuing the next. Because the Messenger rides the auto-corked TCP datapath, a
// pipelined round leaves the native instance as ONE wire segment (and the frontend's replies
// come back the same way): segments/op collapses with depth exactly as the memcached sweeps
// showed for application traffic. Because it rides the pooled IOBuf datapath, steady-state
// RPCs cost no mallocs: allocs/op ~ 0.
//
// Emits the "dist_rpc" section of BENCH_dist_rpc.json (with --smoke, the one depth-32 point
// into "dist_rpc_smoke"); tools/validate_bench_json.py validate_dist_rpc gates both.
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/window.h"
#include "src/dist/file_system.h"
#include "src/dist/global_id_map.h"

namespace ebbrt {
namespace bench {
namespace {

constexpr Ipv4Addr kHostedIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kNativeIp = Ipv4Addr::Of(10, 0, 0, 3);

// One depth point; `total_requests` measured RPCs after the warmup.
Row RunRpcPoint(std::size_t depth, std::size_t total_requests, bool* completed) {
  sim::Testbed bed;
  sim::TestbedNode frontend = bed.AddNode("frontend", 1, kHostedIp,
                                          sim::HypervisorModel::Native(),
                                          RuntimeKind::kHosted);
  sim::TestbedNode native = bed.AddNode("native", 1, kNativeIp);
  std::string sandbox = "/tmp/ebbrt_fig8_dist_rpc_" + std::to_string(::getpid());

  frontend.Spawn(0, [&, sandbox] {
    dist::FileSystem::ServeOn(*frontend.runtime, sandbox);
    dist::GlobalIdMap::ServeOn(*frontend.runtime);
  });

  Window window(bed, {frontend, native});
  dist::FileSystem* fs = nullptr;
  dist::GlobalIdMap* ids = nullptr;
  ClosedLoop loop(window, {
      .ops_per_round = depth,
      .issue =
          [&fs, &ids, depth](std::size_t first) {
            std::vector<Future<void>> round;
            round.reserve(depth);
            for (std::size_t i = 0; i < depth; ++i) {
              if ((first + i) % 2 == 0) {
                round.push_back(
                    ids->Get("service/bench").Then([](Future<std::string> f) { f.Get(); }));
              } else {
                round.push_back(
                    fs->ReadFile("blob.bin").Then([](Future<std::string> f) { f.Get(); }));
              }
            }
            return WhenAll(std::move(round));
          },
      .more = Rounds(total_requests / depth),
      .restripe_at_mark = true,
  });

  native.Spawn(0, [&] {
    fs = &dist::FileSystem::For(*native.runtime, kHostedIp);
    ids = &dist::GlobalIdMap::For(*native.runtime, kHostedIp);
    // Seed the name and the file the measured loop reads, then start.
    ids->Set("service/bench", kNativeIp.ToString() + ":0").Then([&](Future<void> f) {
      f.Get();
      return fs->WriteFile("blob.bin", std::string(64, 'x')).Then([&](Future<void> wf) {
        wf.Get();
        loop.Start();
      });
    });
  });

  bed.world().Run();
  window.CloseAllocs();

  *completed = *completed && loop.done();
  std::size_t requests = loop.done() ? total_requests : 0;
  return {{"pipeline", depth},
          {"requests", requests},
          {"rpcs_per_sec", window.ops_per_sec(requests), 0},
          {"tx_data_segments", window.delta.tx_data_segments},
          {"segments_per_op", PerOp(window.delta.tx_data_segments, requests), 3},
          {"heap_allocs", window.delta.heap_allocs},
          {"allocs_per_op", PerOp(window.delta.heap_allocs, requests), 4},
          {"pool_hit_rate", window.pool_hit_rate(), 4},
          {"virtual_ns", window.delta.virtual_ns}};
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
    rows.push_back(RunRpcPoint(/*depth=*/32, /*total_requests=*/256, &completed));
  } else {
    for (std::size_t depth : {1, 8, 32}) {
      rows.push_back(RunRpcPoint(depth, /*total_requests=*/512, &completed));
    }
  }
  std::printf("# dist RPC depth sweep (GlobalIdMap Get + FileSystem ReadFile, closed loop)\n");
  EmitRows("BENCH_dist_rpc.json", smoke ? "dist_rpc_smoke" : "dist_rpc", rows);
  return completed ? 0 : 1;
}
