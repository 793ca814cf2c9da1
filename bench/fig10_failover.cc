// Figure 10 (extension) — failover under shard death: error rate, tail latency, and
// throughput recovery when one of four replicated shards is killed mid-sweep and later
// revived.
//
// Scenario (cluster_bench.h topology, 4 shards): depth-32 striped GET rounds through a
// replicated router (R=2, read-one-failover, write-all preload) that watches the ring.
//
// Fault plan (virtual time): warmup -> PRE-KILL measured rounds ->
// SimWorld::KillMachine(shard0) -> FAULT rounds (reads whose primary was shard0 time out
// once, mark it suspect, fail over to the replica; later rounds route around it) ->
// ReviveMachine at +2.5ms (TCP retransmission heals the connection at the 5ms RTO) ->
// publish ring epoch 2 at +7ms (operator re-admission; clears suspicion via the RCU ring
// swap) -> RECOVERY rounds.
//
// What it shows: every key keeps a live replica, so reads never fail (the deadline +
// failover machinery is why); recovery-phase ops/s returns to the pre-kill level; the
// failover counters and the ring swap all move; the fault phase's p99 shows the
// one-deadline spike; the pre-kill window takes no control locks; and nothing from the mark
// to the end of the run (fault, recovery and drain included) mallocs.
//
// Emits the "failover" section of BENCH_failover.json (60 pre-kill and 60 recovery rounds;
// with --smoke, 20 and 20 into "failover_smoke"); tools/validate_bench_json.py
// validate_failover gates both.
#include <cstring>
#include <exception>

#include "bench/cluster_bench.h"
#include "src/obs/histogram.h"

namespace ebbrt {
namespace bench {
namespace {

constexpr std::size_t kDepth = 32;
// Per-read deadline: generous against a healthy round trip (~tens of us at depth 32) but
// small against the fault window, so a dead primary costs one deadline, not the outage.
constexpr std::uint64_t kReadDeadlineNs = 400'000;
// Ring watcher period and the outage length.
constexpr std::uint64_t kRingRefreshNs = 300'000;
constexpr std::uint64_t kFaultWindowNs = 2'500'000;
// Re-admission point (from the kill): epoch 2 is published only after the client's TCP
// retransmission (5ms base RTO > the 2.5ms outage) has healed the shard0 connection.
// Publishing at the revive instant would clear the suspect mark while the connection is
// still unhealed — the next read would time out and re-suspect shard0 with no later epoch
// to clear it, pinning the cluster at 3 effective shards.
constexpr std::uint64_t kReadmitNs = 7'000'000;

struct Phase {
  const char* name = "";
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t virtual_ns = 0;
  obs::Histogram latency{};

  double ops_per_sec() const {
    return virtual_ns != 0 ? static_cast<double>(ops) * 1e9 / static_cast<double>(virtual_ns)
                           : 0.0;
  }
  Row Cols() {
    return Row{{"phase", name},
               {"ops", ops},
               {"errors", errors},
               {"error_rate", PerOp(errors, ops + errors), 4},
               {"ops_per_sec", ops_per_sec(), 0}} +
           LatencyCols(latency.TakeSnapshot()) + Row{{"virtual_ns", virtual_ns}};
  }
};

struct Failover {
  Phase pre_kill{"pre_kill"};
  Phase fault{"fault"};
  Phase recovery{"recovery"};
  Phase* phase = &pre_kill;
  std::size_t rounds_left = 0;
  std::uint64_t phase_start = 0;
  std::uint64_t round_start = 0;
  std::uint64_t round_ops = 0;
  std::uint64_t round_errors = 0;
  std::uint64_t t_kill = 0;
  std::uint64_t t_revive = 0;
  std::uint64_t recovered_at = 0;  // end of the first fast-enough recovery round
  bool revived = false;
};

bool RunFailover(std::size_t pre_kill_rounds, std::size_t recovery_rounds,
                 std::vector<Row>* rows) {
  memcached::ShardRouter::Config router;
  router.replication = 2;
  router.read_options =
      dist::CallOptions{kReadDeadlineNs, dist::RetryPolicy{/*max_attempts=*/1}};
  router.ring_refresh_ns = kRingRefreshNs;
  router.frontend = kFrontendIp;
  Failover s;
  s.rounds_left = pre_kill_rounds;
  Cluster cluster({.router = router});
  SimWorld& world = cluster.bed.world();

  // Called after each measured round: books it to its phase and walks the fault plan.
  auto more = [&]() {
    std::uint64_t now = world.Now();
    s.phase->ops += s.round_ops;
    s.phase->errors += s.round_errors;
    if (s.phase == &s.pre_kill) {
      if (--s.rounds_left != 0) {
        return true;
      }
      // Time and control locks stop here; the allocation counters run on to the end of
      // Cluster::Run, so the fault and recovery paths stay under the malloc gate.
      cluster.window.Close();
      s.pre_kill.virtual_ns = cluster.window.delta.virtual_ns;
      // Kill the first shard at a round boundary. Pause semantics: its state survives for
      // the revive; in-flight frames to it die at the fabric.
      world.KillMachine(*cluster.shards[0].runtime);
      s.t_kill = now;
      s.phase = &s.fault;
      s.phase_start = now;
    } else if (s.phase == &s.fault) {
      if (!s.revived && now >= s.t_kill + kFaultWindowNs) {
        // shard0 resumes with its store and TCP state intact; the client's pending
        // retransmissions heal the connection at the 5ms RTO.
        s.revived = true;
        world.ReviveMachine(*cluster.shards[0].runtime);
        s.t_revive = now;
      }
      if (s.revived && now >= s.t_kill + kReadmitNs) {
        s.fault.virtual_ns = now - s.phase_start;
        // Epoch 2: same membership, published by the operator as the "shard0 is healthy
        // again" signal. Adoption clears every suspect mark via the RCU ring swap; refresh
        // at once instead of waiting out the watcher.
        memcached::RingRecord ring2{/*epoch=*/2, {}};
        for (std::size_t i = 0; i < cluster.shards.size(); ++i) {
          ring2.shards.push_back({cluster.shards[i].iface->addr(),
                                  memcached::kShardServiceBase + static_cast<EbbId>(i)});
        }
        memcached::PublishRing(*cluster.client.runtime, kFrontendIp, ring2)
            .Then([&cluster](Future<void> f) {
              f.Get();
              cluster.router->RefreshRing();
            });
        s.phase = &s.recovery;
        s.rounds_left = recovery_rounds;
        s.phase_start = now;
      }
    } else {
      // The first round back at 0.8x pre-kill throughput timestamps the recovery.
      if (s.recovered_at == 0 && now > s.round_start &&
          static_cast<double>(s.round_ops) * 1e9 / static_cast<double>(now - s.round_start) >=
              0.8 * s.pre_kill.ops_per_sec()) {
        s.recovered_at = now;
      }
      if (--s.rounds_left == 0) {
        s.recovery.virtual_ns = now - s.phase_start;
        cluster.router->StopRingWatcher();  // let the world drain
        return false;
      }
    }
    return true;
  };

  bool done = cluster.Run({
      .ops_per_round = kDepth,
      .issue =
          [&](std::size_t first) {
            s.round_start = world.Now();
            s.round_ops = 0;
            s.round_errors = 0;
            Phase* phase = cluster.window.marked() ? s.phase : nullptr;
            std::vector<Future<void>> round;
            round.reserve(kDepth);
            for (std::size_t i = 0; i < kDepth; ++i) {
              std::uint64_t t0 = world.Now();
              round.push_back(
                  cluster.router->Get(BenchKey((first + i) % kKeySpace))
                      .Then([&s, &world, phase, t0](
                                Future<memcached::ShardRouter::GetResult> f) {
                        std::uint64_t lat = world.Now() - t0;
                        try {
                          f.Get();
                          s.round_ops++;
                          if (phase != nullptr) {
                            phase->latency.Record(lat);
                          }
                        } catch (const std::exception&) {
                          // Every replica failed for this key: a real availability error,
                          // counted for the error-rate columns, never fatal.
                          s.round_errors++;
                        }
                      }));
            }
            return WhenAll(std::move(round));
          },
      .more = more,
  });

  memcached::ShardRouter::Stats stats;
  if (cluster.router != nullptr) {
    stats = cluster.router->stats();
  }
  std::vector<Row> phases = {s.pre_kill.Cols(), s.fault.Cols(), s.recovery.Cols()};
  PrintRows(phases);
  rows->push_back(
      {{"phases", Json{RowsJson(phases)}},
       {"t_kill_ns", s.t_kill},
       {"t_revive_ns", s.t_revive},
       {"recovery_ns", s.recovered_at != 0 ? s.recovered_at - s.t_kill : 0},
       {"recovery_ratio",
        s.pre_kill.ops_per_sec() > 0 ? s.recovery.ops_per_sec() / s.pre_kill.ops_per_sec()
                                     : 0.0,
        4},
       {"failovers", stats.failovers},
       {"suspects_marked", stats.suspects_marked},
       {"ring_swaps", stats.ring_swaps},
       {"write_skips", stats.write_skips},
       {"pre_kill_allocs_per_op", PerOp(cluster.window.delta.heap_allocs, s.pre_kill.ops), 4},
       {"pre_kill_control_locks", cluster.window.delta.control_locks}});
  return done;
}

}  // namespace
}  // namespace bench
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("# failover: kill 1 of 4 shards (R=2) mid-run, revive after %.1fms\n",
              kFaultWindowNs / 1e6);
  std::vector<Row> rows;
  bool completed = smoke ? RunFailover(/*pre_kill_rounds=*/20, /*recovery_rounds=*/20, &rows)
                         : RunFailover(/*pre_kill_rounds=*/60, /*recovery_rounds=*/60, &rows);
  EmitRows("BENCH_failover.json", smoke ? "failover_smoke" : "failover", rows);
  return completed ? 0 : 1;
}
