// Table 2 — Node.js webserver latency (paper §4.3): GET requests answered with a 148-byte
// static response under moderate load.
//
//   Paper: EbbRT mean 90.54us / 99th 123.00us; Linux mean 112.83us / 99th 199.00us
//   (Linux mean +24.6%, 99th +61.8%).
//
// The EbbRT server runs on the uv:: layer (the node.js port surface); the Linux server is the
// same logic over the baseline socket stack. Both inside the KVM model; wrk-style closed-loop
// client.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/window.h"
#include "src/apps/http/http_server.h"
#include "src/apps/loadgen/http_loadgen.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

struct Latency {
  double mean_us;
  double p99_us;
  double rps;
};

Latency RunVariant(bool ebbrt_server) {
  sim::Testbed bed;
  sim::TestbedNode server = bed.AddNode("server", 1, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 2, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());
  server.Spawn(0, [&] {
    if (ebbrt_server) {
      new http::HttpServer(*server.net, 8080);
    } else {
      auto* stack = new baseline::SocketStack(bed.world(), *server.net,
                                              baseline::SocketStack::LinuxModel());
      new http::BaselineHttpServer(*stack, 8080);
    }
  });
  loadgen::HttpLoadgen::Config config;
  config.connections = 8;       // moderate load
  config.think_time_ns = 50'000;
  config.duration_ns = 200'000'000;
  loadgen::HttpLoadgen gen(bed, client, Ipv4Addr::Of(10, 0, 0, 2), 8080, config);
  loadgen::HttpLoadgen::Result result;
  bool done = false;
  gen.Run().Then([&](Future<loadgen::HttpLoadgen::Result> f) {
    result = f.Get();
    done = true;
  });
  std::uint64_t horizon = 2ull * 1000 * 1000 * 1000;
  while (!done && bed.world().Now() < horizon) {
    if (bed.world().RunUntil(bed.world().Now() + 50'000'000)) {
      break;
    }
  }
  return {result.mean_ns / 1000.0, result.p99_ns / 1000.0, result.achieved_rps};
}

// --- TX-batching depth sweep (webserver section of BENCH_tx_batching.json) ------------------
// Pipelined GET bursts against the uv-layer (node-style) EbbRT server: depth-N rounds sent
// as one chain; the auto-corked server answers each round in one chain.

bench::DepthRows RunWebDepthPoint(std::size_t depth) {
  sim::Testbed bed;
  sim::TestbedNode server = bed.AddNode("server", 1, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 1, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());
  http::HttpServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new http::HttpServer(*server.net, 8080); });
  loadgen::HttpLoadgen::Config config;
  config.connections = 1;
  config.pipeline = depth;
  config.think_time_ns = 10'000;
  config.warmup_ns = 5'000'000;
  config.duration_ns = 100'000'000;
  loadgen::HttpLoadgen gen(bed, client, Ipv4Addr::Of(10, 0, 0, 2), 8080, config);
  bool done = false;
  gen.Run().Then([&](Future<loadgen::HttpLoadgen::Result> f) {
    f.Get();
    done = true;
  });
  // The steady-state window opens after the warmup, matching fig5's end-of-preload mark, so
  // one-time pool/slab carving is excluded from the alloc columns (the request denominator
  // stays the server's total, the same approximation segments_per_op makes).
  bench::Window window(bed);
  bed.world().RunUntil(bed.world().Now() + config.warmup_ns);
  window.Mark();
  std::uint64_t horizon = 2ull * 1000 * 1000 * 1000;
  while (!done && bed.world().Now() < horizon) {
    if (bed.world().RunUntil(bed.world().Now() + 50'000'000)) {
      break;
    }
  }
  window.Close();
  return bench::DepthPointRows(server.net->stats(), window, depth,
                               srv != nullptr ? srv->requests() : 0, bed.world().Now());
}

void EmitWebserverSweep(const std::vector<std::size_t>& depths) {
  bench::EmitDepthSweep("webserver", depths, RunWebDepthPoint);
}

}  // namespace
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt;
  bool sweep_only = argc > 1 && std::strcmp(argv[1], "--sweep-only") == 0;
  if (sweep_only) {
    EmitWebserverSweep({1, 8, 32});
    return 0;
  }
  std::printf("# Table 2 reproduction: webserver GET -> 148B static response, moderate"
              " load\n");
  std::printf("# paper: EbbRT 90.54us mean / 123us 99th; Linux 112.83us mean / 199us 99th\n");
  Latency ebbrt_row = RunVariant(true);
  Latency linux_row = RunVariant(false);
  std::printf("%-8s %12s %16s %12s\n", "system", "mean(us)", "99th-pct(us)", "rps");
  std::printf("%-8s %12.2f %16.2f %12.0f\n", "EbbRT", ebbrt_row.mean_us, ebbrt_row.p99_us,
              ebbrt_row.rps);
  std::printf("%-8s %12.2f %16.2f %12.0f\n", "Linux", linux_row.mean_us, linux_row.p99_us,
              linux_row.rps);
  std::printf("# Linux/EbbRT: mean %+.1f%%, 99th %+.1f%%\n",
              (linux_row.mean_us / ebbrt_row.mean_us - 1.0) * 100.0,
              (linux_row.p99_us / ebbrt_row.p99_us - 1.0) * 100.0);
  EmitWebserverSweep({1, 8, 32});
  return 0;
}
