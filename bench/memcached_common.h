// Shared harness for the memcached latency-vs-throughput figures (5 and 6), and the depth
// point they contribute to the TX-batching/alloc-pool sweeps (window.h EmitDepthSweep).
//
// Server variants reproduce the paper's four lines: EbbRT (in a KVM guest), Linux in a KVM
// guest, Linux native (no hypervisor costs), and OSv (library OS with the Linux-ABI socket
// layer and a single-queue virtio driver). The client machine plays mutilate: ETC workload,
// up to 4 pipelined requests per connection, open-loop target QPS.
#ifndef EBBRT_BENCH_MEMCACHED_COMMON_H_
#define EBBRT_BENCH_MEMCACHED_COMMON_H_

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/window.h"
#include "src/apps/loadgen/memcached_loadgen.h"
#include "src/apps/memcached/server.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace bench {

enum class ServerVariant { kEbbRT, kLinuxVm, kLinuxNative, kOsv };

inline const char* VariantName(ServerVariant variant) {
  switch (variant) {
    case ServerVariant::kEbbRT:
      return "EbbRT";
    case ServerVariant::kLinuxVm:
      return "Linux";
    case ServerVariant::kLinuxNative:
      return "LinuxNative";
    case ServerVariant::kOsv:
      return "OSv";
  }
  return "?";
}

struct Point {
  double target_qps;
  double achieved_qps;
  double mean_us;
  double p99_us;
};

inline Point RunPoint(ServerVariant variant, std::size_t server_cores, double target_qps) {
  sim::Testbed bed;
  sim::HypervisorModel hv;
  switch (variant) {
    case ServerVariant::kEbbRT:
    case ServerVariant::kLinuxVm:
      hv = sim::HypervisorModel::Kvm();
      break;
    case ServerVariant::kLinuxNative:
      hv = sim::HypervisorModel::Native();
      break;
    case ServerVariant::kOsv:
      hv = sim::HypervisorModel::KvmSingleQueue();
      break;
  }
  sim::TestbedNode server =
      bed.AddNode("server", server_cores, Ipv4Addr::Of(10, 0, 0, 2), hv);
  // The client is the paper's dedicated load machine: unvirtualized, enough cores to not be
  // the bottleneck.
  sim::TestbedNode client = bed.AddNode("client", 4, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());

  server.Spawn(0, [&] {
    switch (variant) {
      case ServerVariant::kEbbRT:
        new memcached::MemcachedServer(*server.net, 11211);
        break;
      case ServerVariant::kLinuxVm:
      case ServerVariant::kLinuxNative: {
        auto* stack = new baseline::SocketStack(bed.world(), *server.net,
                                                baseline::SocketStack::LinuxModel());
        new memcached::BaselineMemcachedServer(*stack, 11211);
        break;
      }
      case ServerVariant::kOsv: {
        auto* stack = new baseline::SocketStack(bed.world(), *server.net,
                                                baseline::SocketStack::OsvModel());
        new memcached::BaselineMemcachedServer(*stack, 11211);
        break;
      }
    }
  });

  loadgen::MemcachedLoadgen::Config config;
  config.connections = 16;
  config.pipeline = 4;
  config.key_space = 2000;
  config.target_qps = target_qps;
  config.warmup_ns = 10'000'000;
  config.duration_ns = 100'000'000;  // 100 ms measured window per point
  loadgen::MemcachedLoadgen gen(bed, client, Ipv4Addr::Of(10, 0, 0, 2), 11211, config);

  loadgen::MemcachedLoadgen::Result result;
  bool have_result = false;
  gen.Run().Then([&](Future<loadgen::MemcachedLoadgen::Result> f) {
    result = f.Get();
    have_result = true;
  });
  // Baseline variants tick forever; bound the run.
  std::uint64_t horizon = 2ull * 1000 * 1000 * 1000;
  while (!have_result && bed.world().Now() < horizon) {
    if (bed.world().RunUntil(bed.world().Now() + 50'000'000)) {
      break;  // quiescent
    }
  }
  Point point;
  point.target_qps = target_qps;
  point.achieved_qps = result.achieved_qps;
  point.mean_us = result.mean_ns / 1000.0;
  point.p99_us = result.p99_ns / 1000.0;
  return point;
}

// The burst client against the EbbRT memcached server.
inline DepthRows RunDepthPoint(std::size_t server_cores, std::size_t depth,
                               std::size_t total_requests) {
  sim::Testbed bed;
  sim::TestbedNode server =
      bed.AddNode("server", server_cores, Ipv4Addr::Of(10, 0, 0, 2));
  // The client mirrors the server's core count: the burst client opens one connection per
  // core, and symmetric RSS steers each flow to the matching server core — the 4-core sweep
  // genuinely exercises all 4 server cores (a single flow would collapse onto one).
  sim::TestbedNode client = bed.AddNode("client", server_cores, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());
  server.Spawn(0, [&] { new memcached::MemcachedServer(*server.net, 11211); });
  loadgen::MemcachedBurstClient::Config config;
  config.depth = depth;
  config.total_requests = total_requests;
  config.key_space = 64;
  config.value_size = 100;
  config.connections = server_cores;
  // Steady state begins when the preload completes: the window opens there, so the
  // allocation columns exclude one-time pool/slab warmup carving.
  Window window(bed);
  config.on_steady = [&window] { window.Mark(); };
  std::size_t responses = 0;
  bool done = false;
  loadgen::MemcachedBurstClient::Run(client, Ipv4Addr::Of(10, 0, 0, 2), 11211, config)
      .Then([&](Future<loadgen::MemcachedBurstClient::Result> f) {
        responses = f.Get().responses;
        done = true;
      });
  bed.world().Run();
  window.Close();
  return DepthPointRows(server.net->stats(), window, depth, done ? responses : 0,
                        bed.world().Now());
}

inline void EmitTxBatchingSweep(const char* section, std::size_t server_cores,
                                const std::vector<std::size_t>& depths,
                                std::size_t total_requests) {
  EmitDepthSweep(section, depths, [server_cores, total_requests](std::size_t depth) {
    return RunDepthPoint(server_cores, depth, total_requests);
  });
}

inline void RunFigure(const char* figure, std::size_t server_cores) {
  std::printf("# %s reproduction: memcached latency vs throughput, %zu server core(s)\n",
              figure, server_cores);
  std::printf("# ETC workload, 16 connections, <=4 pipelined requests/connection\n");
  std::printf("# paper shape: at a 500us 99%% SLA EbbRT sustains ~58%% more RPS than Linux"
              " in a VM,\n");
  std::printf("#              comparable to Linux native; OSv is not competitive\n");
  std::printf("%-12s %12s %12s %10s %10s\n", "variant", "target_qps", "achieved",
              "mean_us", "p99_us");
  const double kLoads[] = {25000, 50000, 100000, 150000, 200000, 250000, 300000};
  for (ServerVariant variant : {ServerVariant::kEbbRT, ServerVariant::kLinuxVm,
                                ServerVariant::kLinuxNative, ServerVariant::kOsv}) {
    for (double qps : kLoads) {
      Point p = RunPoint(variant, server_cores, qps);
      std::printf("%-12s %12.0f %12.0f %10.1f %10.1f\n", VariantName(variant), p.target_qps,
                  p.achieved_qps, p.mean_us, p.p99_us);
    }
  }
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_MEMCACHED_COMMON_H_
