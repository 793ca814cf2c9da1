// Table 3 (extension) — cross-core dispatch cost over the lock-free exchange-list mesh.
//
// The paper's thesis for per-core specialization only holds if moving work BETWEEN cores is
// cheap enough that sharding never has to be second-guessed: a cross-core dispatch should
// cost about as much as a virtual function call, not a lock handoff. This bench pins that
// claim for the interconnect (src/event/interconnect.h) at three levels:
//
//   virtual_call      the baseline: one noinline virtual call (tab1 methodology)
//   mesh_uncontended  the primitive: CAS-publish + exchange-drain + one delivery virtual
//                     call on a raw mesh, single thread (no cache-line transfer)
//   xcore_spawn       the product path: EventManager::SpawnRemote end to end under real
//                     threads — slab-carved node, push, wake-if-idle, drain, closure run
//
// plus a fan-in sweep: 1..N-1 real sender threads hammering ONE receiver list. The receiver
// detaches each pending batch with a single unconditional exchange, so its per-message drain
// cost must stay flat (within 2x of the single-sender cost) no matter how many senders
// contend on the head.
//
// Methodology: minimum over many measurements (tab1), cycles converted at the paper's
// 2.6 GHz clock. Emits the "interconnect" section of BENCH_interconnect.json.
//
// Fan-in runs up to min(7, hw_threads-1) senders; --smoke is a shorter run up to 3 senders
// into "interconnect_smoke". tools/validate_bench_json.py validate_interconnect gates both.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/event/event_manager.h"
#include "src/event/interconnect.h"
#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"
#include "src/platform/clock.h"

namespace ebbrt {
namespace bench {
namespace {

// --- baseline: one virtual call (tab1 methodology) --------------------------------------------

struct VirtualBase {
  virtual ~VirtualBase() = default;
  virtual void Method() = 0;
};
struct VirtualImpl final : VirtualBase {
  __attribute__((noinline)) void Method() override { ++count; }
  std::uint64_t count = 0;
};

constexpr int kInvocations = 1000;
constexpr int kMeasurements = 2000;

template <typename F>
std::uint64_t MeasureMinCycles(F&& body) {
  std::uint64_t best = ~0ull;
  for (int m = 0; m < kMeasurements; ++m) {
    std::uint64_t start = ReadCyclesSerialized();
    for (int i = 0; i < kInvocations; ++i) {
      body();
      asm volatile("" ::: "memory");
    }
    std::uint64_t cycles = ReadCyclesSerialized() - start;
    best = std::min(best, cycles);
  }
  return best;
}

double VirtualCallNs() {
  VirtualImpl impl;
  VirtualBase* vptr = &impl;
  std::uint64_t cycles = MeasureMinCycles([&] { vptr->Method(); });
  return static_cast<double>(CyclesToNs(cycles)) / kInvocations;
}

// --- raw mesh: the primitive without an event loop around it ----------------------------------

// The mesh only calls WakeCore (when a push displaces the idle sentinel); receivers here
// poll, so the wake is a counter. Everything else is unreachable from Push/TakeBatch.
struct NullExecutor final : Executor {
  std::uint64_t Now() override { return 0; }
  void WakeCore(std::size_t) override { wakes.fetch_add(1, std::memory_order_relaxed); }
  void Halt(std::size_t, std::uint64_t) override {}
  bool Stopped() const override { return false; }
  std::atomic<std::uint64_t> wakes{0};
};

// Embedded bench node: both verbs just count a delivery (one virtual call, storage is the
// caller's — the same discipline as VectorEntry and the RCU epoch markers).
struct BenchNode final : InterconnectNode {
  void Fire(EventManager&) override { Count(); }
  void Discard() override { Count(); }
  __attribute__((noinline)) void Count() {
    delivered->fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>* delivered = nullptr;
};

// Single-threaded round trip: publish one node, detach the batch, deliver it. No cache-line
// transfer, no contention — the instruction cost of the primitive itself.
double MeshUncontendedNs() {
  NullExecutor exec;
  Interconnect mesh(exec, 1);
  std::atomic<std::uint64_t> delivered{0};
  BenchNode node;
  node.delivered = &delivered;
  (void)mesh.TakeBatch(0);  // clear the born-idle sentinel, as a core's first drain would
  std::uint64_t cycles = MeasureMinCycles([&] {
    mesh.Push(0, &node);
    InterconnectNode* chain = mesh.TakeBatch(0);
    while (chain != nullptr) {
      InterconnectNode* next = chain->next();
      chain->Discard();
      chain = next;
    }
  });
  return static_cast<double>(CyclesToNs(cycles)) / kInvocations;
}

// Fan-in: `senders` real threads each publish `per_sender` pre-built nodes at ONE receiver
// list while the receiver drains. Returns the receiver-side cost per delivered message —
// the number that must stay flat as senders scale (one exchange detaches however many
// nodes the senders managed to pile up).
double FanInNsPerOp(std::size_t senders, std::size_t per_sender) {
  NullExecutor exec;
  Interconnect mesh(exec, 1);
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::vector<BenchNode>> nodes(senders);
  for (auto& batch : nodes) {
    batch.resize(per_sender);
    for (BenchNode& node : batch) {
      node.delivered = &delivered;
    }
  }
  (void)mesh.TakeBatch(0);  // clear the born-idle sentinel
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (BenchNode& node : nodes[s]) {
        mesh.Push(0, &node);
      }
    });
  }
  const std::uint64_t total = senders * per_sender;
  std::uint64_t start = ReadCyclesSerialized();
  go.store(true, std::memory_order_release);
  while (delivered.load(std::memory_order_relaxed) < total) {
    InterconnectNode* chain = mesh.TakeBatch(0);
    while (chain != nullptr) {
      InterconnectNode* next = chain->next();
      chain->Discard();
      chain = next;
    }
  }
  std::uint64_t cycles = ReadCyclesSerialized() - start;
  for (std::thread& t : threads) {
    t.join();
  }
  return static_cast<double>(CyclesToNs(cycles)) / static_cast<double>(total);
}

// --- product path: SpawnRemote end to end under real threads ----------------------------------

struct SpawnResult {
  double ns_per_spawn = 0;
  double allocs_per_op = 0;        // heap fallbacks per spawn — slab carving makes this 0.0
  std::uint64_t xcore_pushes = 0;  // receiver-core interconnect telemetry for the burst
  std::uint64_t xcore_wakeups = 0;
  std::uint64_t xcore_batched = 0;
  std::uint64_t control_locks = 0;
};

SpawnResult XcoreSpawn(std::size_t burst, int rounds) {
  ThreadMachine machine(2);
  mem::Config config;
  config.arena_bytes = 256ull << 20;
  mem::Install(machine.runtime(), 2, config);
  machine.Start();
  auto& em_root =
      machine.runtime().GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  std::atomic<std::uint64_t> done{0};
  auto one_round = [&] {
    done.store(0, std::memory_order_relaxed);
    machine.RunSync(0, [&] {
      auto& em = event::Local();
      for (std::size_t i = 0; i < burst; ++i) {
        em.SpawnRemote([&done] { done.fetch_add(1, std::memory_order_relaxed); }, 1);
      }
    });
    while (done.load(std::memory_order_relaxed) < burst) {
    }
  };
  one_round();  // warmup: fault in slabs, fault in both loops

  EventManager::Stats stats_before = em_root.RepFor(1).stats();
  std::uint64_t heap_before = mem::stats().heap_fallback_allocs.load();
  std::uint64_t best = ~0ull;
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t start = ReadCyclesSerialized();
    one_round();
    best = std::min(best, ReadCyclesSerialized() - start);
  }
  EventManager::Stats stats_after = em_root.RepFor(1).stats();
  std::uint64_t heap_after = mem::stats().heap_fallback_allocs.load();
  machine.Shutdown();

  SpawnResult result;
  result.ns_per_spawn =
      static_cast<double>(CyclesToNs(best)) / static_cast<double>(burst);
  result.allocs_per_op = static_cast<double>(heap_after - heap_before) /
                         static_cast<double>(burst * static_cast<std::size_t>(rounds));
  result.xcore_pushes = stats_after.xcore_pushes - stats_before.xcore_pushes;
  result.xcore_wakeups = stats_after.xcore_wakeups - stats_before.xcore_wakeups;
  result.xcore_batched = stats_after.xcore_batches - stats_before.xcore_batches;
  result.control_locks = stats_after.control_locks;
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt;
  using namespace ebbrt::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  std::printf("# Table 3 extension: cross-core dispatch over the exchange-list mesh\n");
  std::printf("# claim: a cross-core dispatch costs on the order of a virtual call, stays\n");
  std::printf("#        flat under fan-in, and allocates nothing on the steady-state path\n");

  double virtual_ns = VirtualCallNs();
  double mesh_ns = MeshUncontendedNs();
  SpawnResult spawn = XcoreSpawn(/*burst=*/smoke ? 20000 : 100000, /*rounds=*/smoke ? 3 : 10);

  std::size_t hw = std::thread::hardware_concurrency();
  std::size_t max_senders = std::min<std::size_t>(smoke ? 3 : 7, hw > 1 ? hw - 1 : 1);
  std::size_t per_sender = smoke ? 50000 : 200000;
  std::vector<Row> fan_in;
  for (std::size_t s = 1; s <= max_senders; ++s) {
    // Best of 3: the receiver-side drain cost per message at this contention level.
    double best = FanInNsPerOp(s, per_sender);
    for (int r = 1; r < 3; ++r) {
      best = std::min(best, FanInNsPerOp(s, per_sender));
    }
    fan_in.push_back({{"senders", s}, {"ns_per_op", best, 1}});
  }

  std::printf("%-20s %12s\n", "Path", "ns/op");
  std::printf("%-20s %12.1f\n", "virtual_call", virtual_ns);
  std::printf("%-20s %12.1f\n", "mesh_uncontended", mesh_ns);
  std::printf("%-20s %12.1f   (allocs/op %.4f, wakeups %llu / pushes %llu, batched %llu)\n",
              "xcore_spawn", spawn.ns_per_spawn, spawn.allocs_per_op,
              static_cast<unsigned long long>(spawn.xcore_wakeups),
              static_cast<unsigned long long>(spawn.xcore_pushes),
              static_cast<unsigned long long>(spawn.xcore_batched));
  PrintRows(fan_in);

  char section[512];
  std::snprintf(
      section, sizeof(section),
      "{\"virtual_call_ns\": %.1f, \"mesh_uncontended_ns\": %.1f, "
      "\"xcore_spawn_ns\": %.1f, \"allocs_per_op\": %.4f, \"xcore_pushes\": %llu, "
      "\"xcore_wakeups\": %llu, \"xcore_batched\": %llu, \"control_locks\": %llu, "
      "\"fan_in\": %s}",
      virtual_ns, mesh_ns, spawn.ns_per_spawn, spawn.allocs_per_op,
      static_cast<unsigned long long>(spawn.xcore_pushes),
      static_cast<unsigned long long>(spawn.xcore_wakeups),
      static_cast<unsigned long long>(spawn.xcore_batched),
      static_cast<unsigned long long>(spawn.control_locks),
      RowsJson(fan_in).c_str());
  WriteJsonSection("BENCH_interconnect.json", smoke ? "interconnect_smoke" : "interconnect",
                   section);
  std::printf("# wrote section \"%s\" to BENCH_interconnect.json\n",
              smoke ? "interconnect_smoke" : "interconnect");
  return 0;
}
