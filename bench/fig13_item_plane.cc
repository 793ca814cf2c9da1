// Figure 13 — the KV item plane under a GET/SET mix sweep: ns/op, per-op latency
// quantiles, and the generic-heap allocation rate the old gates never saw.
//
// The paper attributes its memcached win to per-core memory allocation, an RCU item table,
// and zero-copy item views (§4.2). This bench drives KvStore directly — no sockets, no
// simulated NIC — so the numbers isolate the item plane itself: hash/lookup, item-block
// carve, refcounted response pinning (MakeValueBuffer), RCU-deferred replacement.
//
// The headline column is heap_allocs_per_op, measured by the counting ::operator new hook
// (mem::stats().generic_heap_allocs — see src/mem/heap_count.cc): every mem::Stats counter
// before it only saw allocations the datapath routed through mem::, which is exactly how an
// item plane costing 3–4 hidden mallocs per SET shipped under gates that read 0.0. Here the
// counter is snapshotted around EVERY op and attributed to the op that paid it, so GET and
// SET each carry their own rate.
//
// Sweep: GET/SET mix {100/0, 90/10, 50/50} x value size {64, 1024, 8192}.
// Sections written to BENCH_item_plane.json:
//   item_plane           (default)   — the current implementation
//   item_plane_baseline  (--section) — recorded once against the pre-refactor item plane
//   item_plane_smoke     (--smoke)   — reduced op count, gated (CI)
//
// tools/validate_bench_json.py validate_item_plane gates every section.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/apps/memcached/kvstore.h"
#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/histogram.h"
#include "src/platform/clock.h"

namespace ebbrt {
namespace {

using bench::EmitRows;
using bench::LatencyCols;
using bench::Row;

constexpr std::size_t kKeys = 2048;
constexpr std::size_t kBatchOps = 2048;  // ops per event: RCU reclamation drains between

struct MixPoint {
  int get_pct = 0;            // GET share of the mix (SET share = 100 - get_pct)
  std::size_t value_size = 0;
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  double ns_per_op = 0;
  obs::Histogram::Snapshot latency;
  double get_heap_allocs_per_op = 0;  // generic-heap allocs attributed to GET ops
  double set_heap_allocs_per_op = 0;  // ...and to SET ops
  double heap_allocs_per_op = 0;      // attributed total / ops
};

// Deterministic xorshift64* — the op/key schedule must be identical between the baseline
// and current sections or the ns/op comparison measures the schedule, not the item plane.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

MixPoint RunPoint(int get_pct, std::size_t value_size, std::uint64_t total_ops) {
  ThreadMachine machine(1);
  mem::Config config;
  config.arena_bytes = 256ull << 20;
  mem::Install(machine.runtime(), 1, config);
  machine.Start();

  memcached::KvStore store(RcuManagerRoot::For(machine.runtime()));
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("item:" + std::to_string(100000 + i));
  }
  std::string value_backing(value_size, 'v');
  std::string_view value{value_backing};

  // Preload every key (inside an event: the slab path needs the machine context), then
  // warm up with the measured loop body so slabs, table nodes, and histograms are faulted
  // before the first sample.
  machine.RunSync(0, [&] {
    for (const std::string& key : keys) {
      store.Set(key, value, 0);
    }
  });

  obs::Histogram latency_hist;
  Rng rng;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t get_allocs = 0;
  std::uint64_t set_allocs = 0;
  std::uint64_t sink = 0;
  auto& heap_count = mem::stats().generic_heap_allocs;

  auto run_ops = [&](std::uint64_t count, bool measured) {
    for (std::uint64_t done = 0; done < count;) {
      std::uint64_t batch = std::min<std::uint64_t>(kBatchOps, count - done);
      machine.RunSync(0, [&] {
        std::uint64_t prev_ns = WallNowNs();
        for (std::uint64_t i = 0; i < batch; ++i) {
          std::uint64_t roll = rng.Next();
          const std::string& key = keys[roll % kKeys];
          bool is_get = static_cast<int>((roll >> 32) % 100) < get_pct;
          std::uint64_t allocs_before = heap_count.load(std::memory_order_relaxed);
          if (is_get) {
            auto item = store.Get(key);
            if (item != nullptr) {
              // The full response-pinning path: the value rides as a refcounted zero-copy
              // view whose IOBuf release drops the item reference.
              auto buf = memcached::MakeValueBuffer(std::move(item));
              sink += buf->Length();
            }
          } else {
            store.Set(key, value, 0);
          }
          std::uint64_t allocs =
              heap_count.load(std::memory_order_relaxed) - allocs_before;
          std::uint64_t now_ns = WallNowNs();
          if (measured) {
            latency_hist.Record(now_ns - prev_ns);
            if (is_get) {
              ++gets;
              get_allocs += allocs;
            } else {
              ++sets;
              set_allocs += allocs;
            }
          }
          prev_ns = now_ns;
        }
      });
      done += batch;
    }
  };

  run_ops(2 * kBatchOps, /*measured=*/false);  // warmup

  std::uint64_t t0 = WallNowNs();
  run_ops(total_ops, /*measured=*/true);
  std::uint64_t elapsed = WallNowNs() - t0;

  MixPoint point;
  point.get_pct = get_pct;
  point.value_size = value_size;
  point.ops = gets + sets;
  point.gets = gets;
  point.sets = sets;
  point.ns_per_op = point.ops != 0 ? static_cast<double>(elapsed) / point.ops : 0.0;
  point.latency = latency_hist.TakeSnapshot();
  point.get_heap_allocs_per_op =
      gets != 0 ? static_cast<double>(get_allocs) / gets : 0.0;
  point.set_heap_allocs_per_op =
      sets != 0 ? static_cast<double>(set_allocs) / sets : 0.0;
  point.heap_allocs_per_op =
      point.ops != 0 ? static_cast<double>(get_allocs + set_allocs) / point.ops : 0.0;
  if (sink == 0 && get_pct > 0) {
    std::fprintf(stderr, "WARN: GET path never produced a value view\n");
  }
  machine.Shutdown();
  return point;
}

Row Cols(const MixPoint& p) {
  return Row{{"mix_get_pct", static_cast<std::uint64_t>(p.get_pct)},
             {"value_size", p.value_size},
             {"ops", p.ops},
             {"gets", p.gets},
             {"sets", p.sets},
             {"ns_per_op", p.ns_per_op, 1}} +
         LatencyCols(p.latency) +
         Row{{"get_heap_allocs_per_op", p.get_heap_allocs_per_op, 4},
             {"set_heap_allocs_per_op", p.set_heap_allocs_per_op, 4},
             {"heap_allocs_per_op", p.heap_allocs_per_op, 4}};
}

// Runs the sweep into `section`; false when some point ran no ops.
bool Run(const char* section, std::uint64_t ops_per_point) {
  const int mixes[] = {100, 90, 50};
  const std::size_t value_sizes[] = {64, 1024, 8192};
  bool completed = true;
  std::vector<Row> rows;
  for (int mix : mixes) {
    for (std::size_t vs : value_sizes) {
      MixPoint p = RunPoint(mix, vs, ops_per_point);
      completed = completed && p.ops != 0;
      rows.push_back(Cols(p));
    }
  }
  std::printf("# item-plane mix sweep (%s, %llu ops/point)\n", section,
              static_cast<unsigned long long>(ops_per_point));
  EmitRows("BENCH_item_plane.json", section, rows);
  return completed;
}

}  // namespace
}  // namespace ebbrt

int main(int argc, char** argv) {
  const char* section = "item_plane";
  std::uint64_t ops = 200000;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    section = "item_plane_smoke";
    ops = 20000;
  } else if (argc > 2 && std::strcmp(argv[1], "--section") == 0) {
    section = argv[2];
  }
  return ebbrt::Run(section, ops) ? 0 : 1;
}
