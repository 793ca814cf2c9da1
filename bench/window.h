// The measured window and the closed loop every bench shares, whatever its topology: fig8
// and the cluster benches (cluster_bench.h) drive a ClosedLoop and read a Window; the
// fig5/fig6/tab2 depth sweeps mark and close a Window around their loadgen and emit their
// points through DepthPointRows.
//
// Gates live in tools/validate_bench_json.py; a bench exits nonzero only when its schedule
// did not complete.
#ifndef EBBRT_BENCH_WINDOW_H_
#define EBBRT_BENCH_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/dist/messenger.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/metrics.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace bench {

// Measured-window deltas. Mark() and Close() sample the process-wide mem::stats() counters
// and virtual time and, summed over `machines`, TX data segments, Messenger control-lock
// acquisitions and recorded trace spans, plus `shard_ops` when it is set. Sampling never
// creates a subsystem.
class Window {
 public:
  struct Counters {
    std::uint64_t heap_allocs = 0;  // std::malloc fallbacks on the IOBuf paths
    std::uint64_t iobuf_allocs = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t tx_data_segments = 0;
    std::uint64_t control_locks = 0;
    std::uint64_t spans = 0;
    std::uint64_t virtual_ns = 0;
    std::vector<std::uint64_t> shard_ops;
  };

  explicit Window(sim::Testbed& bed, std::vector<sim::TestbedNode> machines = {})
      : bed_(&bed), machines_(std::move(machines)) {}

  void Mark() {
    start_ = Sample();
    marked_ = true;
  }
  void Close() {
    Counters end = Sample();
    delta.tx_data_segments = end.tx_data_segments - start_.tx_data_segments;
    delta.control_locks = end.control_locks - start_.control_locks;
    delta.spans = end.spans - start_.spans;
    delta.virtual_ns = end.virtual_ns - start_.virtual_ns;
    delta.shard_ops = end.shard_ops;
    for (std::size_t i = 0; i < std::min(end.shard_ops.size(), start_.shard_ops.size()); ++i) {
      delta.shard_ops[i] -= start_.shard_ops[i];
    }
    CloseAllocs(end);
    closed_ = true;
  }
  // Moves the end of the allocation counters to now, once the run is over: time, segments,
  // locks, spans and shard ops stop at Close() (the last measured op), but a malloc anywhere
  // after the mark (a fault plan's later phases, the world's drain) still counts. No-op on
  // a window that never closed.
  void CloseAllocs() {
    if (closed_) {
      CloseAllocs(Sample());
    }
  }
  bool marked() const { return marked_; }
  bool closed() const { return closed_; }

  double pool_hit_rate() const {
    return PerOp(delta.pool_hits, delta.pool_hits + delta.pool_misses);
  }
  double ops_per_sec(std::uint64_t ops) const {
    return delta.virtual_ns != 0 ? static_cast<double>(ops) * 1e9 /
                                       static_cast<double>(delta.virtual_ns)
                                 : 0.0;
  }

  std::function<std::vector<std::uint64_t>()> shard_ops;
  Counters delta;

 private:
  void CloseAllocs(const Counters& end) {
    delta.heap_allocs = end.heap_allocs - start_.heap_allocs;
    delta.iobuf_allocs = end.iobuf_allocs - start_.iobuf_allocs;
    delta.pool_hits = end.pool_hits - start_.pool_hits;
    delta.pool_misses = end.pool_misses - start_.pool_misses;
  }

  Counters Sample() const {
    const mem::Stats& m = mem::stats();
    Counters c;
    c.heap_allocs = m.heap_fallback_allocs.load(std::memory_order_relaxed);
    c.iobuf_allocs = m.iobuf_allocs.load(std::memory_order_relaxed);
    c.pool_hits = m.pool_hits.load(std::memory_order_relaxed);
    c.pool_misses = m.pool_misses.load(std::memory_order_relaxed);
    c.virtual_ns = bed_->world().Now();
    for (const sim::TestbedNode& node : machines_) {
      c.tx_data_segments += node.net->stats().tcp_tx_data_segments.load();
      if (auto* messenger =
              node.runtime->TryGetSubsystem<dist::Messenger>(Subsystem::kMessenger)) {
        c.control_locks += messenger->stats().control_locks.load();
      }
      if (obs::ObsRoot* root = obs::ObsRoot::TryFor(*node.runtime)) {
        for (std::size_t core = 0; core < root->num_cores(); ++core) {
          if (obs::MetricRegistry* rep = root->TryRep(core)) {
            c.spans += rep->spans_recorded();
          }
        }
      }
    }
    if (shard_ops) {
      c.shard_ops = shard_ops();
    }
    return c;
  }

  sim::Testbed* bed_;
  std::vector<sim::TestbedNode> machines_;
  Counters start_;
  bool marked_ = false;
  bool closed_ = false;
};

struct Schedule {
  std::size_t ops_per_round = 0;
  // Issues one round whose ops are numbered from `first`; the future resolves when the
  // whole round has.
  std::function<Future<void>(std::size_t first)> issue;
  std::function<bool()> more;
  // Sweeps restart the numbering at the mark, so op k of every point's window is the same
  // op whatever its round size; otherwise the numbering runs on from the warmup.
  bool restripe_at_mark = false;
};

// `more` for a fixed number of measured rounds.
inline std::function<bool()> Rounds(std::size_t measured) {
  return [left = measured]() mutable { return --left > 0; };
}

// A closed loop: each round is issued only after the previous one completed. Two warmup
// rounds run first and the window is marked when they complete; after each measured round
// `more` says whether to go on, and the window closes (unless the scenario closed it
// already) when it says no. The loop must outlive the world's run.
class ClosedLoop {
 public:
  ClosedLoop(Window& window, Schedule schedule)
      : window_(&window), schedule_(std::move(schedule)) {}

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void Start() { Round(); }
  bool done() const { return done_; }

 private:
  void Round() {
    Future<void> round = schedule_.issue(issued_);
    issued_ += schedule_.ops_per_round;
    round.Then([this](Future<void> f) {
      f.Get();
      if (!window_->marked()) {
        if (++warmup_rounds_ == 2) {
          window_->Mark();
          if (schedule_.restripe_at_mark) {
            issued_ = 0;
          }
        }
        Round();
        return;
      }
      if (schedule_.more()) {
        Round();
        return;
      }
      if (!window_->closed()) {
        window_->Close();
      }
      done_ = true;
    });
  }

  Window* window_;
  Schedule schedule_;
  std::size_t issued_ = 0;
  std::size_t warmup_rounds_ = 0;
  bool done_ = false;
};

// --- TX-batching depth sweep (BENCH_tx_batching.json + BENCH_alloc_pool.json) --------------
//
// The segments-per-op story: a pipelined client issues the same request schedule at
// different depths; event-scoped corking turns a depth-N burst's N response segments into
// ceil(bytes/MSS). fig5, fig6 and tab2 each contribute one section to both artifacts.

// One depth point as its two records: the server's TX counters over the whole run (the
// segments story) and mem::stats() over the steady-state window (the allocation story).
struct DepthRows {
  std::size_t requests = 0;  // 0 when the schedule did not complete
  Row tx;
  Row alloc;
};

inline DepthRows DepthPointRows(const NetworkManager::Stats& stats, const Window& window,
                                std::size_t pipeline, std::size_t requests,
                                std::uint64_t virtual_ns) {
  std::uint64_t segments = stats.tcp_tx_data_segments.load();
  const Window::Counters& d = window.delta;
  return {requests,
          {{"pipeline", pipeline},
           {"requests", requests},
           {"tx_data_segments", segments},
           {"sends_coalesced", stats.sends_coalesced.load()},
           {"bytes_per_segment", stats.bytes_per_segment(), 1},
           {"segments_per_op", PerOp(segments, requests), 3},
           {"virtual_ns", virtual_ns}},
          {{"pipeline", pipeline},
           {"requests", requests},
           {"iobuf_allocs", d.iobuf_allocs},
           {"heap_allocs", d.heap_allocs},
           {"pool_hits", d.pool_hits},
           {"pool_misses", d.pool_misses},
           {"allocs_per_op", PerOp(d.heap_allocs, requests), 4},
           {"pool_hit_rate", window.pool_hit_rate(), 4}}};
}

// Runs `run_point` per depth and writes section `section` of both artifacts.
inline void EmitDepthSweep(const char* section, const std::vector<std::size_t>& depths,
                           const std::function<DepthRows(std::size_t)>& run_point) {
  std::vector<Row> tx;
  std::vector<Row> alloc;
  for (std::size_t depth : depths) {
    DepthRows rows = run_point(depth);
    tx.push_back(rows.tx);
    alloc.push_back(rows.alloc);
  }
  std::printf("# TX-batching depth sweep (%s)\n", section);
  EmitRows("BENCH_tx_batching.json", section, tx);
  EmitRows("BENCH_alloc_pool.json", section, alloc);
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_WINDOW_H_
