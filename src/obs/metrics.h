// obs — the machine's telemetry plane: a level switch, distributed tracing and /metrics.
//
// Counters live where the work happens: each subsystem keeps its own stats() struct (mem,
// EventManager, NetworkManager, Messenger, RpcClient, ShardRouter) and its per-core reps
// embed obs::Histogram. This module owns no counter store of its own. It has three jobs:
//
//   * The level switch (off / metrics / metrics+tracing), read by the EventManager reps
//     before they record their histograms and by the RPC layer before it stamps traces.
//   * Tracing: each core carries a current {trace id, span id} context (TraceScope RAII).
//     The RPC layer stamps both into every frame (rpc.h's RpcHeader) so a trace id survives
//     retries under fresh request ids and ShardRouter failovers; completed hops are written
//     as SpanRecords into a per-core preallocated ring. Ids derive from (runtime id, core,
//     sequence) — fully deterministic under SimWorld, so tests assert exact span trees.
//   * Exposition: pull collectors name the subsystem counters at snapshot time, never on a
//     hot path; SnapshotNow() runs them and RenderText() formats the result for /metrics.
#ifndef EBBRT_SRC_OBS_METRICS_H_
#define EBBRT_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/runtime.h"
#include "src/obs/histogram.h"

namespace ebbrt {
namespace obs {

// Global instrumentation level for one machine. kMetrics enables the event-plane histogram
// recording; kTracing additionally stamps trace ids into RPC frames and writes span records.
// The plane is born at kTracing — "always on" is the design point; benches dial it down to
// measure the plane's own cost.
enum class Level : std::uint8_t { kOff = 0, kMetrics = 1, kTracing = 2 };

enum class SpanKind : std::uint8_t { kLocal = 0, kClient = 1, kServer = 2 };
enum class SpanStatus : std::uint8_t { kOk = 0, kError = 1, kTimeout = 2, kPeerLost = 3 };

// One completed hop of a distributed request. POD, written whole into a preallocated
// per-core ring — recording a span never allocates.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;  // 0 = root of its trace
  EbbId service = 0;              // target service id (client/server) or logical op owner
  std::uint16_t opcode = 0;
  SpanKind kind = SpanKind::kLocal;
  SpanStatus status = SpanStatus::kOk;
  std::uint64_t start_ns = 0;     // virtual time under SimWorld
  std::uint64_t end_ns = 0;
  std::uint32_t attempts = 0;     // client spans: send attempts (1 = no retry)
  std::uint32_t core = 0;         // recording core
};

class ObsRoot;

// --- Per-core representative -----------------------------------------------------------------
//
// One core's trace state: the ambient trace context, the id sequences and the span ring.
// Every method but spans_recorded() is owner-core only (the usual non-preemption argument).
class MetricRegistry {
 public:
  // Span ring capacity per core (power of two). The ring wraps: recent spans win.
  static constexpr std::size_t kSpanRingCap = 4096;

  MetricRegistry(ObsRoot& root, std::size_t machine_core);

  struct TraceContext {
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;
  };
  TraceContext current() const { return ctx_; }
  std::uint64_t NewTraceId();
  std::uint32_t NewSpanId();
  // Writes one completed span into this core's ring. Never allocates; the ring wraps.
  void RecordSpan(const SpanRecord& span);
  std::uint64_t spans_recorded() const {
    return span_next_.load(std::memory_order_relaxed);
  }

 private:
  friend class ObsRoot;

  ObsRoot& root_;
  std::size_t machine_core_;

  TraceContext ctx_;               // current trace scope (owner core only)
  std::uint64_t trace_seq_ = 0;
  std::uint32_t span_seq_ = 0;
  // Preallocated at rep construction (control plane) — the recording path never allocates.
  std::unique_ptr<SpanRecord[]> span_ring_;
  std::atomic<std::uint64_t> span_next_{0};  // total spans ever recorded; ring index mod cap
};

// --- Per-machine root ------------------------------------------------------------------------
class ObsRoot {
 public:
  // The machine's plane, creating and installing it (Subsystem::kObservability) on first
  // use. Construction attaches the level switch to every EventManager rep and installs the
  // default collectors over the subsystem stats() structs.
  static ObsRoot& For(Runtime& runtime);
  // The plane if it exists, nullptr otherwise — for hot paths that must not force creation.
  static ObsRoot* TryFor(Runtime& runtime) {
    return runtime.TryGetSubsystem<ObsRoot>(Subsystem::kObservability);
  }

  explicit ObsRoot(Runtime& runtime);
  ~ObsRoot();

  ObsRoot(const ObsRoot&) = delete;
  ObsRoot& operator=(const ObsRoot&) = delete;

  Runtime& runtime() { return runtime_; }

  Level level() const { return static_cast<Level>(level_.load(std::memory_order_relaxed)); }
  void SetLevel(Level level) {
    level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
  }
  bool metrics_on() const { return level() >= Level::kMetrics; }
  bool tracing_on() const { return level() >= Level::kTracing; }

  // --- Snapshots -----------------------------------------------------------------------------
  // Scalar samples carry their full exposition name, labels included.
  using Sample = std::pair<std::string, double>;
  using HistSample = std::pair<std::string, Histogram::Snapshot>;
  struct MetricsSnapshot {
    std::vector<Sample> samples;
    std::vector<HistSample> hists;  // merged across cores by the collector that names them
  };
  // Pull-style collectors: run at snapshot time, never on a hot path. Each one reads a
  // subsystem's own counters and appends named samples (or histograms) to the snapshot.
  using Collector = std::function<void(MetricsSnapshot&)>;
  std::uint64_t AddCollector(Collector collector);
  void RemoveCollector(std::uint64_t handle);

  // Runs every collector, then appends the plane's own obs_spans_recorded and obs_level.
  // Reads other cores' counters with relaxed loads; callable from any of the machine's cores.
  MetricsSnapshot SnapshotNow();
  // The /metrics exposition text for a snapshot (Prometheus-flavored; histograms render as
  // _count/_sum plus q="0.5|0.99|0.999" quantile samples).
  static std::string RenderText(const MetricsSnapshot& snapshot);

  // --- Tracing (control-plane views; recording goes through the reps) ------------------------
  // All spans currently held in the per-core rings, oldest first per core. Control plane:
  // tests and debug endpoints, not the datapath.
  std::vector<SpanRecord> Spans() const;
  void ClearSpans();
  std::uint64_t NowNs();

  // RAII trace scope for the current core: installs {trace_id, span_id} as the ambient
  // context so RPC calls issued inside pick it up, restores the previous context on exit.
  class TraceScope {
   public:
    TraceScope(ObsRoot& root, std::uint64_t trace_id, std::uint32_t span_id);
    ~TraceScope();
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    MetricRegistry& rep_;
    MetricRegistry::TraceContext saved_;
  };

  // The rep for `machine_core`, created on first use (control-plane lock on creation only).
  MetricRegistry& RepFor(std::size_t machine_core);
  MetricRegistry* TryRep(std::size_t machine_core) const {
    return reps_[machine_core].get();
  }
  std::size_t num_cores() const { return reps_.size(); }

 private:
  void InstallDefaultCollectors();

  Runtime& runtime_;
  std::atomic<std::uint8_t> level_{static_cast<std::uint8_t>(Level::kTracing)};

  mutable std::mutex mu_;  // collector list + rep creation; never on a recording path
  std::uint64_t next_collector_ = 1;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;

  std::vector<std::unique_ptr<MetricRegistry>> reps_;  // indexed by machine core
};

}  // namespace obs
}  // namespace ebbrt

#endif  // EBBRT_SRC_OBS_METRICS_H_
