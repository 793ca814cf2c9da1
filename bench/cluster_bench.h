// The cluster bench harness: the topology that fig9, fig10, fig11 and tab4 share, driven by
// window.h's ClosedLoop and measured by its Window, so each of those files states only its
// scenario (shard count, round shape, router config, fault plan, obs level).
//
// Topology: a hosted frontend at 10.0.0.10 serving GlobalIdMap; N single-core shard
// machines at 10.0.0.20+i, each a ShardService over the RCU KvStore that charges kServiceNs
// of modeled backend work per key and announces itself as "service/memcached/<i>"; and a
// native client at 10.0.0.3 that discovers the shards by name, builds a ShardRouter,
// preloads kKeySpace keys in 32-key SET rounds and then drives the scenario's rounds.
//
// Gates live in tools/validate_bench_json.py; a bench exits nonzero only when its schedule
// did not complete.
#ifndef EBBRT_BENCH_CLUSTER_BENCH_H_
#define EBBRT_BENCH_CLUSTER_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/window.h"
#include "src/apps/memcached/shard.h"
#include "src/obs/metrics.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace bench {

constexpr Ipv4Addr kFrontendIp = Ipv4Addr::Of(10, 0, 0, 10);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr std::size_t kKeySpace = 256;
constexpr std::size_t kValueBytes = 64;
// Modeled per-key backend service time (hash-table walk, item bookkeeping, LRU/stat upkeep:
// the ~3us of CPU a real memcached core spends per op at the paper's clock). This is what
// sharding parallelizes; a MultiGet pays it once per key, so batching cannot discount it.
constexpr std::uint64_t kServiceNs = 3000;

inline std::string BenchKey(std::size_t index) { return "user:" + std::to_string(index); }

// The static single-replica router: no deadlines, no ring watcher.
inline memcached::ShardRouter::Config StaticRouter() {
  memcached::ShardRouter::Config config;
  config.replication = 1;
  config.read_options = dist::CallOptions{};
  return config;
}

struct ClusterConfig {
  std::size_t shards = 4;
  memcached::ShardRouter::Config router = StaticRouter();
  // Dials every machine's telemetry plane to this level before the workload; unset leaves
  // the plane as each machine creates it.
  std::optional<obs::Level> obs_level = std::nullopt;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config) : window(bed), config_(std::move(config)) {
    frontend = bed.AddNode("frontend", 1, kFrontendIp, sim::HypervisorModel::Native(),
                           RuntimeKind::kHosted);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards.push_back(bed.AddNode("shard" + std::to_string(i), 1,
                                   Ipv4Addr::Of(10, 0, 0, 20 + static_cast<unsigned>(i))));
    }
    client = bed.AddNode("client", 1, kClientIp, sim::HypervisorModel::Native());
    std::vector<sim::TestbedNode> machines = shards;
    machines.insert(machines.begin(), frontend);
    machines.push_back(client);
    window = Window(bed, std::move(machines));

    std::optional<obs::Level> level = config_.obs_level;
    frontend.Spawn(0, [node = frontend, level] {
      SetLevel(node, level);
      dist::GlobalIdMap::ServeOn(*node.runtime);
    });
    for (std::size_t i = 0; i < shards.size(); ++i) {
      sim::TestbedNode node = shards[i];
      node.Spawn(0, [this, node, i, level] {
        // Before the service exists: RpcServer records server spans only into a plane that
        // already does.
        SetLevel(node, level);
        memcached::ShardService::Config service;
        service.on_request = [this] { bed.world().Charge(kServiceNs); };
        // Adopted by the shard machine's runtime: the service (and its `this`-capturing
        // hook) dies with the machine inside this Testbed's teardown.
        node.runtime->Adopt(
            std::make_shared<memcached::ShardService>(*node.runtime, i, service));
        memcached::AnnounceShard(*node.runtime, kFrontendIp, i, node.iface->addr())
            .Then([](Future<void> f) { f.Get(); });
      });
    }
  }

  // Discovers the shards, builds the router, preloads the key space and runs `schedule` to
  // its end, then lets the world drain. The window's allocation counters run to the end of
  // the drain. Returns false when the schedule did not complete.
  bool Run(Schedule schedule) {
    loop_ = std::make_unique<ClosedLoop>(window, std::move(schedule));
    client.Spawn(0, [this] {
      SetLevel(client, config_.obs_level);
      memcached::DiscoverShards(*client.runtime, kFrontendIp, shards.size())
          .Then([this](Future<std::vector<memcached::ShardEndpoint>> f) {
            memcached::RingRecord ring{/*epoch=*/1, f.Get()};
            if (config_.router.frontend != Ipv4Addr::Any()) {
              // A watching router needs the authoritative record to poll: seed epoch 1, so
              // polls are quiet no-ops until a scenario publishes a newer one.
              memcached::PublishRing(*client.runtime, kFrontendIp, ring)
                  .Then([](Future<void> pf) { pf.Get(); });
            }
            router = std::make_unique<memcached::ShardRouter>(*client.runtime,
                                                              std::move(ring), config_.router);
            window.shard_ops = [r = router.get()] { return r->per_shard_ops(); };
            Preload();
          });
    });
    bed.world().Run();
    window.CloseAllocs();
    return loop_->done();
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Testbed bed;
  sim::TestbedNode frontend;
  std::vector<sim::TestbedNode> shards;
  sim::TestbedNode client;
  std::unique_ptr<memcached::ShardRouter> router;
  Window window;

 private:
  static void SetLevel(const sim::TestbedNode& node, std::optional<obs::Level> level) {
    if (level) {
      obs::ObsRoot::For(*node.runtime).SetLevel(*level);
    }
  }

  // Write-all preload in pipelined 32-key SET rounds: with replication every key lands on
  // all its replicas, so reads see consistent data whichever replica serves them.
  void Preload() {
    std::size_t batch = std::min<std::size_t>(32, kKeySpace - preloaded_);
    std::vector<Future<void>> round;
    round.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      round.push_back(router->Set(BenchKey(preloaded_ + i), std::string(kValueBytes, 'v')));
    }
    preloaded_ += batch;
    WhenAll(std::move(round)).Then([this](Future<void> f) {
      f.Get();
      if (preloaded_ < kKeySpace) {
        Preload();
      } else {
        loop_->Start();
      }
    });
  }

  ClusterConfig config_;
  std::unique_ptr<ClosedLoop> loop_;
  std::size_t preloaded_ = 0;
};

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_CLUSTER_BENCH_H_
