// kvbench — the repository's end-to-end benchmark: the unmodified library serving
// key-value traffic inside SimWorld under CostMode::kMeasured, where a handler's virtual
// time is the host cycles it really spent, scaled to the paper's 2.6 GHz clock.
//
//   kvbench --workload <etc_1core|sharded_multiget|write_heavy_4core> --seed <n>
//           --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload untraced and then
// traced, and prints the per-layer metrics. The last line of stdout is one JSON object;
// the exit code is nonzero when any response fails verification. README.md describes the
// metrics, their clocks and why each workload exists.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/stats.h"
#include "src/apps/memcached/server.h"
#include "src/apps/memcached/shard.h"
#include "src/dist/messenger.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/metrics.h"
#include "src/platform/clock.h"
#include "src/sim/testbed.h"

namespace perfbench {
namespace {

using namespace ebbrt;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr Ipv4Addr kFrontendIp = Ipv4Addr::Of(10, 0, 0, 10);
constexpr std::uint16_t kPort = 11211;
// Client lanes: memcached connections, or single-core client machines with a router each.
constexpr std::size_t kLanes = 4;
// Open-loop in-flight cap per lane in the fixed-rate phase.
constexpr std::size_t kPipeline = 4;
constexpr std::size_t kShards = 4;
constexpr std::size_t kMultiGetKeys = 16;
// An op unanswered this long after its due time has failed (200x the paper's 500 us p99
// SLA). Host scheduling gaps are billed as virtual time under kMeasured and reach several
// ms on a shared host; the limit sits far above them, so it catches lost responses.
constexpr std::uint64_t kLatencyLimitNs = 100'000'000;
// Response bytes a memcached connection may have outstanding: half the 64 KiB TCP window,
// so the server never meets a full send window (its Send would refuse the response).
constexpr std::size_t kResponseByteCap = 32 * 1024;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Latency windows hold this many expected arrivals (so a window's p99 has 10 beyond it),
// and saturation throughput is read over segments of this many 1 ms steps.
constexpr std::size_t kWindowSamples = 1000;
constexpr std::size_t kCapacitySegment = 10;
constexpr std::size_t kPatternBytes = 16 * 1024;

double HostSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads ---------------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool sharded;
  std::size_t server_cores;  // memcached server cores (sharded: cores per shard)
  std::size_t keys;
  bool large_values;         // 4-16 KiB uniform; otherwise ETC (1 B - 1 KiB)
  double get_share;          // GET (or MultiGet) share of ops
  double fixed_rate;         // offered ops/s of the fixed-rate phase, all lanes together
  std::size_t sat_depth;     // closed-loop outstanding ops per lane in the saturation phase
  // Host-side cost of one measured op on the reference host (ns). Sizes the phases from
  // --seconds; the phases are then fixed op counts, so every run does the same work.
  double host_ns_per_op;
};

const Workload kWorkloads[] = {
    // One server core, ETC mix over a keyspace that fits in L2.
    {"etc_1core", false, 1, 2000, false, 0.9, 60000, 16, 9600},
    // Hosted frontend + 4 single-core shards, R=2, 16-key MultiGets, 10% Sets.
    {"sharded_multiget", true, 1, 4096, false, 0.9, 16000, 4, 100000},
    // Four server cores, 50/50 GET/SET of 4-16 KiB values over ~256 MiB of live data.
    {"write_heavy_4core", false, 4, 26000, true, 0.5, 22000, 4, 57000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

enum class Kind : std::uint8_t { kGet, kSet, kMultiGet };

struct Op {
  std::uint32_t key;  // key index; for kMultiGet, offset of its keys in the lane's list
  Kind kind;
};

struct Keyspace {
  std::vector<std::string> keys;
  std::vector<std::uint32_t> hash;
  std::vector<std::uint32_t> size;
  std::vector<std::uint32_t> generation;  // last generation the client wrote
  std::string pattern;                    // payload bytes of framed values
};

Keyspace MakeKeyspace(const Workload& w, std::mt19937_64& rng) {
  Keyspace ks;
  ks.keys.reserve(w.keys);
  std::normal_distribution<double> key_len(30.7, 8.2);
  std::uniform_int_distribution<int> letter('a', 'z');
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> large(4096, 16384);
  for (std::size_t i = 0; i < w.keys; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    key += ':';
    std::size_t len = static_cast<std::size_t>(std::clamp(key_len(rng), 20.0, 70.0));
    while (key.size() < len) {
      key.push_back(static_cast<char>(letter(rng)));
    }
    ks.hash.push_back(KeyHash32(key));
    ks.keys.push_back(std::move(key));
    std::uint32_t size;
    if (w.large_values) {
      size = large(rng);
    } else {
      // ETC values: generalized Pareto (sigma 214.48, k 0.348), clamped to [1, 1024].
      double x = 214.48 / 0.348 * (std::pow(1.0 - unit(rng), -0.348) - 1.0);
      size = static_cast<std::uint32_t>(std::clamp(x, 1.0, 1024.0));
    }
    ks.size.push_back(size);
  }
  ks.generation.assign(w.keys, 0);
  ks.pattern.resize(kPatternBytes);
  for (char& c : ks.pattern) {
    c = static_cast<char>(rng());
  }
  return ks;
}

// All inputs of one run, generated from the seed before anything is timed.
struct Inputs {
  Keyspace ks;
  std::vector<Op> preload[kLanes];
  std::vector<Op> warmup[kLanes];
  std::vector<Op> fixed[kLanes];
  std::vector<std::uint64_t> fixed_due[kLanes];  // offsets from the phase start, ns
  std::vector<Op> saturation[kLanes];
  std::vector<std::uint32_t> multiget_keys[kLanes];
  std::uint64_t fixed_duration_ns = 0;
  // Host seconds a single DriveUntil may take before the run fails; it only bounds a hang.
  double host_limit_s = 0;
};

std::vector<Op> MakeMix(const Workload& w, std::mt19937_64& rng, std::size_t n,
                        std::vector<std::uint32_t>* multiget_keys) {
  std::uniform_int_distribution<std::uint32_t> key(0, static_cast<std::uint32_t>(w.keys - 1));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool get = unit(rng) < w.get_share;
    if (get && w.sharded) {
      auto offset = static_cast<std::uint32_t>(multiget_keys->size());
      for (std::size_t k = 0; k < kMultiGetKeys; ++k) {
        multiget_keys->push_back(key(rng));
      }
      ops.push_back({offset, Kind::kMultiGet});
    } else {
      ops.push_back({key(rng), get ? Kind::kGet : Kind::kSet});
    }
  }
  return ops;
}

Inputs MakeInputs(const Workload& w, std::uint64_t seed, double measured_seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Inputs in;
  in.ks = MakeKeyspace(w, rng);
  for (std::uint32_t k = 0; k < w.keys; ++k) {
    in.preload[k % kLanes].push_back({k, Kind::kSet});
  }
  // Half the measured budget to each phase, sized by the reference host cost per op.
  double phase_ops = 0.5 * measured_seconds * 1e9 / w.host_ns_per_op;
  in.fixed_duration_ns = static_cast<std::uint64_t>(phase_ops / w.fixed_rate * 1e9);
  // A phase takes about half the budget on the reference host; allow 16 times that, and
  // never less than 170 s.
  in.host_limit_s = std::max(170.0, 8.0 * measured_seconds);
  std::size_t sat_per_lane = static_cast<std::size_t>(phase_ops / kLanes);
  std::size_t warm_per_lane = std::max<std::size_t>(200, sat_per_lane / 20);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    in.warmup[lane] = MakeMix(w, rng, warm_per_lane, &in.multiget_keys[lane]);
    // Each lane is an independent Poisson stream at a quarter of the offered rate.
    std::exponential_distribution<double> gap(w.fixed_rate / kLanes / 1e9);
    double t = 0;
    while (true) {
      t += gap(rng);
      if (t >= static_cast<double>(in.fixed_duration_ns)) {
        break;
      }
      in.fixed_due[lane].push_back(static_cast<std::uint64_t>(t));
    }
    in.fixed[lane] = MakeMix(w, rng, in.fixed_due[lane].size(), &in.multiget_keys[lane]);
    in.saturation[lane] = MakeMix(w, rng, sat_per_lane, &in.multiget_keys[lane]);
  }
  return in;
}

// --- memcached wire requests -----------------------------------------------------------------

std::size_t RequestBytes(const Keyspace& ks, const Op& op) {
  std::size_t bytes = sizeof(memcached::BinaryHeader) + ks.keys[op.key].size();
  if (op.kind == Kind::kSet) {
    bytes += sizeof(memcached::SetExtras) + ks.size[op.key];
  }
  return bytes;
}

std::size_t ResponseBytes(const Keyspace& ks, const Op& op) {
  std::size_t bytes = sizeof(memcached::BinaryHeader);
  if (op.kind == Kind::kGet) {
    bytes += sizeof(memcached::GetExtras) + ks.size[op.key];
  }
  return bytes;
}

// Writes the request for `op` into `dst` (RequestBytes long). A SET writes the key's next
// generation.
void WriteRequest(Keyspace& ks, const Op& op, std::uint32_t opaque, char* dst) {
  using memcached::BinaryHeader;
  const std::string& key = ks.keys[op.key];
  BinaryHeader hdr{};
  hdr.magic = memcached::kMagicRequest;
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.opaque = opaque;
  char* p = dst + sizeof(hdr);
  if (op.kind == Kind::kGet) {
    hdr.opcode = static_cast<std::uint8_t>(memcached::Opcode::kGet);
    hdr.total_body = HostToNet32(static_cast<std::uint32_t>(key.size()));
  } else {
    std::size_t value = ks.size[op.key];
    hdr.opcode = static_cast<std::uint8_t>(memcached::Opcode::kSet);
    hdr.extras_length = sizeof(memcached::SetExtras);
    hdr.total_body = HostToNet32(
        static_cast<std::uint32_t>(sizeof(memcached::SetExtras) + key.size() + value));
    std::memset(p, 0, sizeof(memcached::SetExtras));
    p += sizeof(memcached::SetExtras);
    FillValue(p + key.size(), value, ks.hash[op.key], ++ks.generation[op.key],
              ks.pattern.data());
  }
  std::memcpy(dst, &hdr, sizeof(hdr));
  std::memcpy(p, key.data(), key.size());
}

// --- Per-lane client ---------------------------------------------------------------------------

class Bench;

enum class PhaseKind { kClosed, kOpen };

// One client lane: a memcached connection, or a client core issuing through its own
// ShardRouter. The lane runs one phase at a time, either open loop (arrivals due on a
// schedule, at most kPipeline in flight, the rest waiting in the client queue) or closed
// loop (a fixed number outstanding, the next op issued when one completes).
class Lane final : public TcpHandler {
 public:
  Lane(Bench& bench, std::size_t index, sim::TestbedNode node, std::size_t core)
      : bench_(bench), index_(index), node_(node), core_(core), sched_(1) {}

  void StartPhase(PhaseKind kind, const std::vector<Op>* ops,
                  const std::vector<std::uint64_t>* due, std::size_t depth,
                  std::uint64_t start, bool record);
  void Receive(std::unique_ptr<IOBuf> data) override;
  void SendReady() override { Pump(); }

  sim::TestbedNode node() const { return node_; }
  std::size_t core() const { return core_; }
  void Spawn(MoveFunction<void()> fn) { node_.Spawn(core_, std::move(fn)); }
  void set_router(std::unique_ptr<memcached::ShardRouter> router) {
    router_ = std::move(router);
  }
  memcached::ShardRouter* router() { return router_.get(); }
  void ReleaseRouter() { router_.reset(); }

  // Outcomes of the current phase.
  FailureTally tally;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latencies;  // (due, latency) ns
  // Traced runs: one span per completed op of a recorded phase, (latency, lateness).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  // Traced runs: host cycles and generic-heap allocations in the client's own code.
  std::uint64_t client_cycles = 0;
  std::uint64_t client_allocs = 0;
  std::uint64_t app_bytes = 0;           // request + response bytes of completed ops
  std::uint64_t key_lookups = 0;
  std::uint64_t key_hits = 0;
  std::uint64_t completed_at = 0;        // virtual time of the phase's last completion
  // Marks ops still queued or in flight as failed (phase deadline expired).
  void FailRemaining();

 private:
  // Scope of the client's own code in traced runs (the outermost one counts).
  class ClientSpan {
   public:
    explicit ClientSpan(Lane& lane);
    ~ClientSpan();
    ClientSpan(const ClientSpan&) = delete;
    ClientSpan& operator=(const ClientSpan&) = delete;

   private:
    Lane& lane_;
    bool outermost_;
    std::uint64_t cycles_ = 0;
    std::uint64_t allocs_ = 0;
  };

  struct InFlight {
    std::size_t index;
    std::size_t response_bytes;
  };

  void Pump();
  void IssueSharded(std::size_t index, const Op& op);
  void Finish(std::size_t index, Outcome outcome);
  void ArmTimer(std::uint64_t now);
  Outcome CheckMemcached(const memcached::RequestParser::Request& rsp, const Op& op);
  Outcome CheckValue(const IOBuf* chain, std::uint32_t key);

  Bench& bench_;
  std::size_t index_;
  sim::TestbedNode node_;
  std::size_t core_;
  std::unique_ptr<memcached::ShardRouter> router_;
  memcached::RequestParser parser_;  // responses share the request framing

  PhaseKind kind_ = PhaseKind::kClosed;
  const std::vector<Op>* ops_ = nullptr;
  OpenLoopLane sched_;
  std::size_t limit_ = 0;  // ops the phase issues
  bool record_ = false;
  bool active_ = false;
  std::deque<InFlight> inflight_;
  std::size_t response_bytes_ = 0;
  bool timer_armed_ = false;
  int span_depth_ = 0;
  std::vector<std::uint64_t> late_;  // traced runs: lateness by op index
  std::string scratch_;
};

// Cumulative layer counters at one instant; metrics are deltas between two captures.
struct Counters {
  obs::Histogram::Snapshot handler, hook, client_handler;
  std::vector<std::uint64_t> core_busy;  // per server core handler time
  std::uint64_t shard_busy = 0;
  std::uint64_t xcore_pushes = 0, xcore_wakeups = 0;
  std::uint64_t calendar = 0, deferred = 0;
  std::uint64_t tx_kicks = 0, irqs = 0, frames = 0;
  std::uint64_t tx_segments = 0, tx_bytes = 0, coalesced_sends = 0, rx_coalesced = 0;
  std::uint64_t heap = 0, iobuf = 0, pool_hits = 0, pool_misses = 0, remote_frees = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t messages = 0, payload = 0, control_locks = 0;
  std::uint64_t client_messages = 0;  // sharded: RPC requests the clients sent
  std::uint64_t wire_bytes = 0;  // TCP payload bytes sent by every machine, retransmits included
  double rpc_timeouts = 0, rpc_retries = 0;
  std::uint64_t spans = 0;
  std::vector<std::uint64_t> shard_ops;
};

class Bench {
 public:
  Bench(const Workload& w, Inputs& in, bool traced) : w_(w), in_(in), traced_(traced) {}
  ~Bench();

  // Builds the testbed, boots the servers, discovers them, preloads and warms up.
  // Returns false on any failure.
  bool Setup();
  // Runs the fixed-rate and saturation phases.
  bool RunMeasured();

  SimWorld& world() { return bed_->world(); }
  bool traced() const { return traced_; }
  Keyspace& ks() { return in_.ks; }
  const Workload& workload() const { return w_; }
  const std::vector<std::uint32_t>& multiget_keys(std::size_t lane) const {
    return in_.multiget_keys[lane];
  }
  void LaneDone() { ++lanes_done_; }
  memcached::ShardRouter* lane_router(std::size_t lane) { return lanes_[lane]->router(); }
  memcached::KvStore& server_store() { return mc_server_->store(); }
  memcached::KvStore& shard_store(std::size_t shard) { return shard_services_[shard]->store(); }
  sim::TestbedNode server_node(std::size_t i) const { return ServerNodes()[i]; }

  // --- Results ---
  FailureTally tally;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latencies;  // fixed phase (due, latency)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  // Saturation phase progress, once per 1 ms virtual step: (virtual ns, correct ops).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
  double capacity_ops = 0;
  double host_measured_s = 0;
  std::uint64_t fixed_start = 0, fixed_end = 0;
  std::uint64_t client_cycles = 0, client_allocs = 0, app_bytes = 0;
  std::uint64_t key_lookups = 0, key_hits = 0;

  Counters Capture();
  Counters at_fixed_start, at_fixed_end, at_end;

 private:
  bool RunPhase(PhaseKind kind, std::vector<Op> (&ops)[kLanes],
                std::vector<std::uint64_t> (*due)[kLanes], std::size_t depth, bool record,
                std::uint64_t deadline_ns);
  bool DriveUntil(const std::function<bool()>& done, std::uint64_t deadline_ns,
                  bool track = false);
  std::vector<sim::TestbedNode> ServerNodes() const;

  const Workload& w_;
  Inputs& in_;
  bool traced_;
  std::unique_ptr<sim::Testbed> bed_;
  // Memcached: one client machine with a core per lane. Sharded: a single-core client
  // machine per lane, since a machine holds one RPC client per shard service.
  std::vector<sim::TestbedNode> clients_;
  sim::TestbedNode server_;                 // memcached server
  sim::TestbedNode frontend_;               // sharded: hosted GlobalIdMap frontend
  std::vector<sim::TestbedNode> shards_;    // sharded: shard machines
  memcached::MemcachedServer* mc_server_ = nullptr;
  std::vector<memcached::ShardService*> shard_services_;
  std::vector<std::shared_ptr<Lane>> lanes_;
  std::size_t lanes_done_ = 0;
  std::size_t connected_ = 0;
  bool failed_setup_ = false;
};

Lane::ClientSpan::ClientSpan(Lane& lane)
    : lane_(lane), outermost_(lane.bench_.traced() && lane.span_depth_++ == 0) {
  if (outermost_) {
    cycles_ = ReadCycles();
    allocs_ = mem::stats().generic_heap_allocs.load();
  }
}

Lane::ClientSpan::~ClientSpan() {
  if (lane_.bench_.traced()) {
    --lane_.span_depth_;
  }
  if (outermost_) {
    lane_.client_cycles += ReadCycles() - cycles_;
    lane_.client_allocs += mem::stats().generic_heap_allocs.load() - allocs_;
  }
}

void Lane::StartPhase(PhaseKind kind, const std::vector<Op>* ops,
                      const std::vector<std::uint64_t>* due, std::size_t depth,
                      std::uint64_t start, bool record) {
  kind_ = kind;
  ops_ = ops;
  record_ = record;
  limit_ = ops->size();
  tally = FailureTally{};
  latencies.clear();
  spans.clear();
  client_cycles = client_allocs = app_bytes = 0;
  key_lookups = key_hits = 0;
  completed_at = 0;
  sched_ = OpenLoopLane(depth);
  if (kind == PhaseKind::kOpen) {
    for (std::uint64_t offset : *due) {
      sched_.AddArrival(start + offset);
    }
    latencies.reserve(limit_);
  } else {
    std::uint64_t now = bench_.world().Now();
    for (std::size_t i = 0; i < std::min(depth, limit_); ++i) {
      sched_.AddArrival(now);
    }
  }
  if (bench_.traced()) {
    late_.assign(limit_, 0);
  }
  active_ = true;
  if (limit_ == 0) {
    active_ = false;
    bench_.LaneDone();
    return;
  }
  Pump();
}

void Lane::ArmTimer(std::uint64_t now) {
  std::uint64_t next = sched_.NextDue();
  // Due work blocked while requests are in flight resumes on their completion; only a
  // future arrival, or a send window that opens on a bare ACK, needs the timer.
  if (timer_armed_ || next == UINT64_MAX || (next <= now && sched_.in_flight() != 0)) {
    return;
  }
  std::uint64_t delay = next > now ? next - now : 2000;
  timer_armed_ = true;
  Timer::Instance()->Start(delay, [this] {
    timer_armed_ = false;
    if (active_) {
      Pump();
    }
  });
}

void Lane::Pump() {
  ClientSpan span(*this);
  SimWorld& world = bench_.world();
  std::uint64_t now = world.Now();
  Keyspace& ks = bench_.ks();
  while (active_) {
    long next = sched_.NextSendable(now);
    if (next < 0) {
      break;
    }
    auto index = static_cast<std::size_t>(next);
    const Op& op = (*ops_)[index];
    if (bench_.workload().sharded) {
      std::uint64_t late = sched_.MarkSent(now);
      if (bench_.traced()) {
        late_[index] = late;
      }
      IssueSharded(index, op);
      continue;
    }
    std::size_t request = RequestBytes(ks, op);
    std::size_t response = ResponseBytes(ks, op);
    if (!inflight_.empty() && response_bytes_ + response > kResponseByteCap) {
      break;
    }
    if (Pcb().SendWindowRemaining() < request) {
      break;
    }
    auto buf = IOBuf::Create(request);
    WriteRequest(ks, op, static_cast<std::uint32_t>(index),
                 reinterpret_cast<char*>(buf->WritableData()));
    std::uint64_t late = sched_.MarkSent(now);
    if (bench_.traced()) {
      late_[index] = late;
    }
    if (!Pcb().Send(std::move(buf))) {
      Finish(index, Outcome::kRefused);
      continue;
    }
    inflight_.push_back({index, response});
    response_bytes_ += response;
  }
  if (active_) {
    ArmTimer(now);
  }
}

void Lane::IssueSharded(std::size_t index, const Op& op) {
  Keyspace& ks = bench_.ks();
  if (op.kind == Kind::kSet) {
    std::uint32_t size = ks.size[op.key];
    scratch_.resize(size);
    FillValue(scratch_.data(), size, ks.hash[op.key], ++ks.generation[op.key],
              ks.pattern.data());
    router_->Set(ks.keys[op.key], scratch_).Then([this, index](Future<void> f) {
      ClientSpan span(*this);
      Outcome outcome = Outcome::kOk;
      try {
        f.Get();
      } catch (...) {
        outcome = Outcome::kError;
      }
      Finish(index, outcome);
    });
    return;
  }
  const std::vector<std::uint32_t>& all = bench_.multiget_keys(index_);
  std::vector<std::string_view> keys;
  keys.reserve(kMultiGetKeys);
  for (std::size_t k = 0; k < kMultiGetKeys; ++k) {
    keys.push_back(ks.keys[all[op.key + k]]);
  }
  router_->MultiGet(keys).Then(
      [this, index, offset = op.key](
          Future<std::vector<memcached::ShardRouter::GetResult>> f) {
        ClientSpan span(*this);
        Outcome outcome = Outcome::kOk;
        try {
          std::vector<memcached::ShardRouter::GetResult> results = f.Get();
          const std::vector<std::uint32_t>& all = bench_.multiget_keys(index_);
          if (results.size() != kMultiGetKeys) {
            outcome = Outcome::kError;
          }
          for (std::size_t k = 0; k < results.size() && outcome == Outcome::kOk; ++k) {
            ++key_lookups;
            if (!results[k].found) {
              outcome = Outcome::kMiss;
              break;
            }
            ++key_hits;
            outcome = CheckValue(results[k].value.get(), all[offset + k]);
          }
        } catch (...) {
          outcome = Outcome::kError;
        }
        Finish(index, outcome);
      });
}

Outcome Lane::CheckValue(const IOBuf* chain, std::uint32_t key) {
  const Keyspace& ks = bench_.ks();
  if (chain == nullptr) {
    return ks.size[key] == 0 ? Outcome::kOk : Outcome::kBadValue;
  }
  if (chain->Next() == nullptr) {
    return VerifyValue(reinterpret_cast<const char*>(chain->Data()), chain->Length(),
                       ks.size[key], ks.hash[key])
               ? Outcome::kOk
               : Outcome::kBadValue;
  }
  scratch_.clear();
  for (const IOBuf* seg = chain; seg != nullptr; seg = seg->Next()) {
    scratch_.append(reinterpret_cast<const char*>(seg->Data()), seg->Length());
  }
  return VerifyValue(scratch_.data(), scratch_.size(), ks.size[key], ks.hash[key])
             ? Outcome::kOk
             : Outcome::kBadValue;
}

Outcome Lane::CheckMemcached(const memcached::RequestParser::Request& rsp, const Op& op) {
  auto status = static_cast<memcached::Status>(NetToHost16(rsp.header.status_vbucket));
  if (rsp.header.magic != memcached::kMagicResponse) {
    return Outcome::kError;
  }
  if (op.kind == Kind::kSet) {
    return status == memcached::Status::kOk ? Outcome::kOk : Outcome::kError;
  }
  ++key_lookups;
  if (status == memcached::Status::kKeyNotFound) {
    return Outcome::kMiss;
  }
  if (status != memcached::Status::kOk) {
    return Outcome::kError;
  }
  ++key_hits;
  const Keyspace& ks = bench_.ks();
  return VerifyValue(rsp.value.data(), rsp.value.size(), ks.size[op.key], ks.hash[op.key])
             ? Outcome::kOk
             : Outcome::kBadValue;
}

void Lane::Receive(std::unique_ptr<IOBuf> data) {
  ClientSpan span(*this);
  parser_.Feed(std::move(data), [this](const memcached::RequestParser::Request& rsp) {
    if (inflight_.empty()) {
      tally.Record(Outcome::kError);  // a response nobody asked for
      return;
    }
    InFlight f = inflight_.front();
    inflight_.pop_front();
    response_bytes_ -= f.response_bytes;
    app_bytes += RequestBytes(bench_.ks(), (*ops_)[f.index]) + f.response_bytes;
    Outcome outcome = rsp.header.opaque == static_cast<std::uint32_t>(f.index)
                          ? CheckMemcached(rsp, (*ops_)[f.index])
                          : Outcome::kError;
    Finish(f.index, outcome);
  });
  if (parser_.poisoned()) {
    tally.Record(Outcome::kError);
  }
  if (active_) {
    Pump();
  }
}

void Lane::Finish(std::size_t index, Outcome outcome) {
  std::uint64_t now = bench_.world().Now();
  std::uint64_t latency = sched_.Complete(index, now);
  if (outcome == Outcome::kOk && latency > kLatencyLimitNs) {
    outcome = Outcome::kTimeout;
  }
  tally.Record(outcome);
  if (record_ && kind_ == PhaseKind::kOpen) {
    latencies.emplace_back(now - latency, latency);
    if (bench_.traced()) {
      spans.emplace_back(latency, late_[index]);
    }
  }
  completed_at = now;
  if (kind_ == PhaseKind::kClosed && sched_.arrivals() < limit_) {
    sched_.AddArrival(now);
  }
  if (bench_.workload().sharded && active_) {
    Pump();
  }
  if (active_ && sched_.done()) {
    active_ = false;
    bench_.LaneDone();
  }
}

void Lane::FailRemaining() {
  if (!active_) {
    return;
  }
  for (std::size_t i = sched_.sent(); i < limit_; ++i) {
    tally.Record(Outcome::kUnsent);
  }
  for (std::size_t i = 0; i < sched_.in_flight(); ++i) {
    tally.Record(Outcome::kTimeout);
  }
  active_ = false;
}

// --- Testbed -----------------------------------------------------------------------------------

Bench::~Bench() {
  if (bed_ != nullptr) {
    bed_->world().Shutdown();
    for (auto& lane : lanes_) {
      lane->ReleaseRouter();
    }
  }
  lanes_.clear();
  bed_.reset();
}

// Server-side machines: the memcached server, or the shards followed by the frontend.
std::vector<sim::TestbedNode> Bench::ServerNodes() const {
  if (w_.sharded) {
    std::vector<sim::TestbedNode> nodes = shards_;
    nodes.push_back(frontend_);
    return nodes;
  }
  return {server_};
}

bool Bench::DriveUntil(const std::function<bool()>& done, std::uint64_t deadline_ns,
                       bool track) {
  double host_deadline = HostSeconds() + in_.host_limit_s;
  while (!done()) {
    world().RunUntil(world().Now() + 1'000'000);
    if (track) {
      std::uint64_t correct = 0;
      for (auto& lane : lanes_) {
        correct += lane->tally.correct();
      }
      progress.emplace_back(world().Now(), correct);
    }
    if (world().Now() > deadline_ns || HostSeconds() > host_deadline) {
      return false;
    }
  }
  return true;
}

bool Bench::Setup() {
  bed_ = std::make_unique<sim::Testbed>(SimWorld::CostMode::kMeasured);
  // The client is the paper's unvirtualized load machine, one core per lane.
  if (w_.sharded) {
    frontend_ = bed_->AddNode("frontend", 1, kFrontendIp, sim::HypervisorModel::Native(),
                              RuntimeKind::kHosted);
    for (std::size_t i = 0; i < kShards; ++i) {
      shards_.push_back(bed_->AddNode("shard" + std::to_string(i), w_.server_cores,
                                      Ipv4Addr::Of(10, 0, 0, 20 + static_cast<unsigned>(i))));
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      clients_.push_back(bed_->AddNode("client" + std::to_string(i), 1,
                                       Ipv4Addr::Of(10, 0, 0, 3 + static_cast<unsigned>(i)),
                                       sim::HypervisorModel::Native()));
      lanes_.push_back(std::make_shared<Lane>(*this, i, clients_[i], 0));
    }
  } else {
    server_ = bed_->AddNode("server", w_.server_cores, kServerIp);
    clients_.push_back(
        bed_->AddNode("client", kLanes, kClientIp, sim::HypervisorModel::Native()));
    for (std::size_t i = 0; i < kLanes; ++i) {
      lanes_.push_back(std::make_shared<Lane>(*this, i, clients_[0], i));
    }
  }

  // Every machine runs its telemetry plane at the default level, as a deployment would.
  auto boot_obs = [](sim::TestbedNode node) {
    node.Spawn(0, [node] { obs::ObsRoot::For(*node.runtime); });
  };
  for (const sim::TestbedNode& node : clients_) {
    boot_obs(node);
  }
  if (w_.sharded) {
    boot_obs(frontend_);
    frontend_.Spawn(0, [this] { dist::GlobalIdMap::ServeOn(*frontend_.runtime); });
    shard_services_.assign(kShards, nullptr);
    for (std::size_t i = 0; i < kShards; ++i) {
      sim::TestbedNode node = shards_[i];
      boot_obs(node);
      node.Spawn(0, [this, node, i] {
        auto service = std::make_shared<memcached::ShardService>(*node.runtime, i);
        shard_services_[i] = service.get();
        node.runtime->Adopt(service);
        memcached::AnnounceShard(*node.runtime, kFrontendIp, i, node.iface->addr())
            .Then([this](Future<void> f) {
              try {
                f.Get();
              } catch (...) {
                failed_setup_ = true;
              }
            });
      });
    }
    // Let the announcements land; then each client discovers the shard set and builds
    // its replicated router.
    world().RunUntil(world().Now() + 2'000'000);
    for (auto& lane : lanes_) {
      lane->Spawn([this, lane] {
        Runtime& runtime = *lane->node().runtime;
        memcached::DiscoverShards(runtime, kFrontendIp, kShards)
            .Then([this, lane, &runtime](Future<std::vector<memcached::ShardEndpoint>> f) {
              memcached::RingRecord ring;
              ring.epoch = 1;
              try {
                ring.shards = f.Get();
              } catch (...) {
                failed_setup_ = true;
                return;
              }
              memcached::ShardRouter::Config config;
              config.replication = 2;
              lane->set_router(std::make_unique<memcached::ShardRouter>(runtime, ring, config));
              ++connected_;
            });
      });
    }
  } else {
    boot_obs(server_);
    server_.Spawn(0, [this] {
      auto server = std::make_shared<memcached::MemcachedServer>(*server_.net, kPort);
      mc_server_ = server.get();
      server_.runtime->Adopt(server);
    });
    world().RunUntil(world().Now() + 100'000);
    // Lane i connects from client core i; symmetric RSS lands the flow on server core
    // i % server_cores.
    for (auto& lane : lanes_) {
      lane->Spawn([this, lane] {
        sim::TestbedNode client = lane->node();
        client.net->tcp().Connect(*client.iface, kServerIp, kPort).Then(
            [this, lane](Future<TcpPcb> f) {
              try {
                TcpPcb pcb = f.Get();
                pcb.InstallHandler(std::shared_ptr<TcpHandler>(lane));
                ++connected_;
              } catch (...) {
                failed_setup_ = true;
              }
            });
      });
    }
  }
  std::uint64_t deadline = world().Now() + 1'000'000'000;
  if (!DriveUntil([this] { return connected_ == kLanes || failed_setup_; }, deadline) ||
      failed_setup_) {
    std::fprintf(stderr, "kvbench: testbed did not come up\n");
    return false;
  }
  std::uint64_t far = world().Now() + 600'000'000'000ull;
  if (!RunPhase(PhaseKind::kClosed, in_.preload, nullptr, 16, false, far) ||
      tally.failed() != 0) {
    std::fprintf(stderr, "kvbench: preload failed (%" PRIu64 " of %" PRIu64 " ops)\n",
                 tally.failed(), tally.attempted);
    return false;
  }
  if (!RunPhase(PhaseKind::kClosed, in_.warmup, nullptr, w_.sat_depth, false, far) ||
      tally.failed() != 0) {
    std::fprintf(stderr, "kvbench: warmup failed (%" PRIu64 " of %" PRIu64 " ops)\n",
                 tally.failed(), tally.attempted);
    return false;
  }
  return true;
}

// Runs one phase on every lane and gathers its outcomes into the bench's tally.
bool Bench::RunPhase(PhaseKind kind, std::vector<Op> (&ops)[kLanes],
                     std::vector<std::uint64_t> (*due)[kLanes], std::size_t depth,
                     bool record, std::uint64_t deadline_ns) {
  lanes_done_ = 0;
  tally = FailureTally{};
  // Open-loop schedules start a little ahead, so every lane's first arrival is in the future.
  std::uint64_t start = world().Now() + 10'000;
  for (std::size_t i = 0; i < kLanes; ++i) {
    std::shared_ptr<Lane> lane = lanes_[i];
    const std::vector<std::uint64_t>* lane_due = due != nullptr ? &(*due)[i] : nullptr;
    const std::vector<Op>* lane_ops = &ops[i];
    lane->Spawn([lane, kind, lane_ops, lane_due, depth, start, record] {
      lane->StartPhase(kind, lane_ops, lane_due, depth, start, record);
    });
  }
  bool ok = DriveUntil([this] { return lanes_done_ == kLanes; }, deadline_ns,
                       kind == PhaseKind::kClosed && record);
  for (auto& lane : lanes_) {
    if (!ok) {
      lane->FailRemaining();
    }
    tally.Merge(lane->tally);
    client_cycles += lane->client_cycles;
    client_allocs += lane->client_allocs;
    app_bytes += lane->app_bytes;
    key_lookups += lane->key_lookups;
    key_hits += lane->key_hits;
    if (record) {
      latencies.insert(latencies.end(), lane->latencies.begin(), lane->latencies.end());
      spans.insert(spans.end(), lane->spans.begin(), lane->spans.end());
    }
  }
  if (!ok) {
    std::fprintf(stderr, "kvbench: phase missed its deadline\n");
  }
  return ok;
}

// --- Layer counters ----------------------------------------------------------------------------

Counters Bench::Capture() {
  Counters c;
  std::vector<sim::TestbedNode> servers = ServerNodes();
  std::vector<sim::TestbedNode> all = servers;
  all.insert(all.end(), clients_.begin(), clients_.end());
  for (const sim::TestbedNode& node : servers) {
    auto& em_root = node.runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
    for (std::size_t core = 0; core < em_root.num_cores(); ++core) {
      EventManager& em = em_root.RepFor(core);
      obs::Histogram::Snapshot h;
      em.handler_latency_hist().Sample(&h);
      c.core_busy.push_back(h.sum);
      c.handler.Merge(h);
      if (w_.sharded && node.runtime != frontend_.runtime) {
        c.shard_busy += h.sum;
      }
      em.end_of_event_hook_hist().Sample(&c.hook);
      EventManager::Stats s = em.stats();
      c.xcore_pushes += s.xcore_pushes;
      c.xcore_wakeups += s.xcore_wakeups;
    }
    c.tx_kicks += node.nic->tx_kicks();
    c.irqs += node.nic->interrupts_raised();
    c.frames += node.nic->frames_transmitted() + node.nic->frames_received();
    const NetworkManager::Stats& ns = node.net->stats();
    c.tx_segments += ns.tcp_tx_data_segments.load();
    c.tx_bytes += ns.tcp_tx_payload_bytes.load();
    c.coalesced_sends += ns.sends_coalesced.load();
    c.rx_coalesced += ns.rx_coalesced_bytes.load();
  }
  for (const sim::TestbedNode& node : clients_) {
    auto& em_root = node.runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
    for (std::size_t core = 0; core < em_root.num_cores(); ++core) {
      em_root.RepFor(core).handler_latency_hist().Sample(&c.client_handler);
    }
  }
  for (const sim::TestbedNode& node : all) {
    c.wire_bytes += node.net->stats().tcp_tx_payload_bytes.load();
    if (auto* messenger = node.runtime->TryGetSubsystem<dist::Messenger>(Subsystem::kMessenger)) {
      c.messages += messenger->stats().messages_sent.load();
      c.payload += messenger->stats().payload_bytes_sent.load();
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
  if (w_.sharded) {
    for (const sim::TestbedNode& node : clients_) {
      if (obs::ObsRoot* root = obs::ObsRoot::TryFor(*node.runtime)) {
        for (const auto& sample : root->SnapshotNow().samples) {
          if (sample.first == "rpc_timeouts") {
            c.rpc_timeouts += sample.second;
          } else if (sample.first == "rpc_retries") {
            c.rpc_retries += sample.second;
          }
        }
      }
    }
    for (const sim::TestbedNode& node : clients_) {
      if (auto* messenger =
              node.runtime->TryGetSubsystem<dist::Messenger>(Subsystem::kMessenger)) {
        c.client_messages += messenger->stats().messages_sent.load();
      }
    }
    c.shard_ops.assign(kShards, 0);
    for (auto& lane : lanes_) {
      const std::vector<std::uint64_t>& per = lane->router()->per_shard_ops();
      for (std::size_t s = 0; s < per.size() && s < kShards; ++s) {
        c.shard_ops[s] += per[s];
      }
    }
    for (memcached::ShardService* service : shard_services_) {
      c.bad_frames += service->bad_frames();
    }
  } else {
    c.bad_frames = mc_server_->bad_frames();
  }
  c.calendar = world().world_stats().entries_dispatched;
  c.deferred = world().world_stats().entries_deferred;
  mem::Stats& m = mem::stats();
  c.heap = m.generic_heap_allocs.load();
  c.iobuf = m.iobuf_allocs.load();
  c.pool_hits = m.pool_hits.load();
  c.pool_misses = m.pool_misses.load();
  c.remote_frees = m.remote_frees.load();
  return c;
}

bool Bench::RunMeasured() {
  // Set-up phases ran through the same lanes; only the measured phases count.
  client_cycles = client_allocs = app_bytes = key_lookups = key_hits = 0;
  latencies.clear();
  spans.clear();
  double host_start = HostSeconds();
  FailureTally total;
  std::uint64_t far = world().Now() + 600'000'000'000ull;
  at_fixed_start = Capture();
  fixed_start = world().Now() + 10'000;  // RunPhase's open-loop start
  bool ok = RunPhase(PhaseKind::kOpen, in_.fixed, &in_.fixed_due, kPipeline, true,
                     fixed_start + in_.fixed_duration_ns + kLatencyLimitNs);
  total.Merge(tally);
  for (auto& lane : lanes_) {
    fixed_end = std::max(fixed_end, lane->completed_at);
  }
  at_fixed_end = Capture();
  if (ok) {
    ok = RunPhase(PhaseKind::kClosed, in_.saturation, nullptr, w_.sat_depth, true, far);
    // Median completion rate over 10 ms virtual segments: a host stall billed as virtual
    // time slows a few segments, not the median.
    std::vector<std::uint64_t> rates;
    for (std::size_t i = kCapacitySegment; i < progress.size(); i += kCapacitySegment) {
      const auto& [t0, n0] = progress[i - kCapacitySegment];
      const auto& [t1, n1] = progress[i];
      rates.push_back((n1 - n0) * 1'000'000'000ull / (t1 - t0));
    }
    capacity_ops = static_cast<double>(ExactQuantile(rates, 0.5));
    total.Merge(tally);
  }
  tally = total;
  at_end = Capture();
  host_measured_s = HostSeconds() - host_start;
  return ok;
}

// --- Metrics -----------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

obs::Histogram::Snapshot HistDelta(const obs::Histogram::Snapshot& a,
                                   const obs::Histogram::Snapshot& b) {
  obs::Histogram::Snapshot d;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  }
  d.count = b.count - a.count;
  d.sum = b.sum - a.sum;
  return d;
}

// Events whose handler ran for at least 1 ms of virtual time. No handler of these
// workloads does that much work; under kMeasured such a slice is a host scheduling gap.
double HandlersOverOneMs(const obs::Histogram::Snapshot& h) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (obs::Histogram::LowerBound(i) >= 1'000'000) {
      n += h.buckets[i];
    }
  }
  return static_cast<double>(n);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double HostOpsPerSecond(const Bench& b) {
  return static_cast<double>(b.tally.correct()) / b.host_measured_s;
}

// Fixed-phase latency quantile q (ns): the median over windows of kWindowSamples expected
// arrivals of each window's exact quantile.
double WindowedLatency(const Bench& b, double q) {
  auto window = static_cast<std::uint64_t>(
      static_cast<double>(kWindowSamples) / b.workload().fixed_rate * 1e9);
  return static_cast<double>(
      MedianOfWindows(b.latencies, b.fixed_start, window, q, kWindowSamples / 2));
}

std::vector<std::uint64_t> LatencyValues(const Bench& b) {
  std::vector<std::uint64_t> values;
  values.reserve(b.latencies.size());
  for (const auto& sample : b.latencies) {
    values.push_back(sample.second);
  }
  return values;
}

Metrics EndToEnd(const Bench& b, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"capacity_ops", b.capacity_ops, "ops/s"},
      {"latency_p50_us", WindowedLatency(b, 0.5) / 1000.0, "us"},
      {"latency_p99_us", WindowedLatency(b, 0.99) / 1000.0, "us"},
      {"failed_share", b.tally.FailedShare(), "fraction"},
      {"host_ops_per_s", HostOpsPerSecond(b), "ops/s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Host cycles of `fn`, as the virtual-equivalent ns kMeasured would bill for them.
template <typename F>
double TimedNs(F&& fn) {
  std::uint64_t t0 = ReadCyclesSerialized();
  fn();
  return static_cast<double>(CyclesToNs(ReadCyclesSerialized() - t0));
}

// Self times of the server-side layers, measured by replaying this run's recorded inputs
// through the layers' public entry points on a server core (they are otherwise reached only
// through the NIC). All values are virtual-equivalent ns.
struct Replay {
  double parse_ns_per_req = 0;
  double kv_get_ns = 0;
  double kv_set_ns = 0;
  double codec_ns_per_op = 0;         // whole MultiGet codec round, client and shard side
  double shard_codec_ns_per_op = 0;   // the shard's half: key-vector parse + reply build
};

// Runs `fn` as an event on core 0 of `node` and drives the world until it has run.
void RunOn(Bench& b, sim::TestbedNode node, MoveFunction<void()> fn) {
  bool done = false;
  node.Spawn(0, [&done, fn = std::move(fn)]() mutable {
    fn();
    done = true;
  });
  while (!done) {
    b.world().RunUntil(b.world().Now() + 1'000'000);
  }
}

constexpr std::size_t kReplayOps = 20000;
constexpr std::size_t kReplaySets = 2000;

Replay ReplayLayers(Bench& b, std::vector<Op> (&fixed)[kLanes], sim::TestbedNode server,
                    memcached::KvStore& store) {
  Replay r;
  Keyspace& ks = b.ks();
  const Workload& w = b.workload();
  // The recorded op sequence: fixed-phase ops, lanes interleaved in index order.
  std::vector<std::pair<std::size_t, Op>> ops;
  for (std::size_t i = 0; ops.size() < kReplayOps; ++i) {
    bool any = false;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (i < fixed[lane].size()) {
        ops.emplace_back(lane, fixed[lane][i]);
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  memcached::ShardRouter* router = w.sharded ? b.lane_router(0) : nullptr;
  // Keys the replayed store holds: all of them for the memcached server, the keys whose
  // primary replica is shard 0 for the sharded store.
  auto held = [&](std::uint32_t key) {
    return router == nullptr || router->ShardFor(ks.keys[key]) == 0;
  };
  std::vector<std::uint32_t> get_keys, set_keys;
  for (const auto& [lane, op] : ops) {
    if (op.kind == Kind::kGet && held(op.key)) {
      get_keys.push_back(op.key);
    } else if (op.kind == Kind::kSet && held(op.key) && set_keys.size() < kReplaySets) {
      set_keys.push_back(op.key);
    } else if (op.kind == Kind::kMultiGet) {
      for (std::size_t k = 0; k < kMultiGetKeys; ++k) {
        std::uint32_t key = b.multiget_keys(lane)[op.key + k];
        if (held(key)) {
          get_keys.push_back(key);
        }
      }
    }
  }

  RunOn(b, server, [&] {
    std::size_t bytes = 0;
    r.kv_get_ns = TimedNs([&] {
      for (std::uint32_t key : get_keys) {
        memcached::ItemPtr item = store.Get(ks.keys[key]);
        bytes += item != nullptr ? item->value().size() : 0;
      }
    });
    r.kv_get_ns /= static_cast<double>(std::max<std::size_t>(1, get_keys.size()));
    std::vector<std::string> values;
    for (std::uint32_t key : set_keys) {
      values.emplace_back(ks.size[key], '\0');
      FillValue(values.back().data(), ks.size[key], ks.hash[key], ++ks.generation[key],
                ks.pattern.data());
    }
    r.kv_set_ns = TimedNs([&] {
      for (std::size_t i = 0; i < set_keys.size(); ++i) {
        store.Set(ks.keys[set_keys[i]], values[i], 0);
      }
    });
    r.kv_set_ns /= static_cast<double>(std::max<std::size_t>(1, set_keys.size()));
    if (bytes == 0 && !get_keys.empty()) {
      std::fprintf(stderr, "kvbench: replayed GETs found nothing\n");
    }
  });

  if (!w.sharded) {
    // The request byte stream as the server's TCP layer delivers it: MSS-sized segments.
    std::string stream;
    std::size_t requests = 0;
    for (const auto& [lane, op] : ops) {
      std::size_t offset = stream.size();
      stream.resize(offset + RequestBytes(ks, op));
      WriteRequest(ks, op, 0, stream.data() + offset);
      ++requests;
    }
    RunOn(b, server, [&] {
      std::vector<std::unique_ptr<IOBuf>> segments;
      for (std::size_t off = 0; off < stream.size(); off += kTcpMss) {
        segments.push_back(
            IOBuf::CopyBuffer(stream.data() + off, std::min(kTcpMss, stream.size() - off)));
      }
      memcached::RequestParser parser;
      std::size_t parsed = 0;
      double ns = TimedNs([&] {
        for (auto& segment : segments) {
          parser.Feed(std::move(segment),
                      [&parsed](const memcached::RequestParser::Request&) { ++parsed; });
        }
      });
      r.parse_ns_per_req = ns / static_cast<double>(std::max<std::size_t>(1, parsed));
      if (parsed != requests) {
        std::fprintf(stderr, "kvbench: replay parsed %zu of %zu requests\n", parsed, requests);
      }
    });
    return r;
  }

  // MultiGet codec rounds: per op, one key vector and one reply per shard the op touches.
  struct Group {
    std::vector<std::string_view> keys;
    std::vector<std::unique_ptr<IOBuf>> values;
  };
  std::vector<std::vector<Group>> rounds;
  std::size_t multigets = 0;
  RunOn(b, server, [&] {
    for (const auto& [lane, op] : ops) {
      if (op.kind != Kind::kMultiGet) {
        continue;
      }
      ++multigets;
      std::vector<Group> groups(kShards);
      for (std::size_t k = 0; k < kMultiGetKeys; ++k) {
        std::uint32_t key = b.multiget_keys(lane)[op.key + k];
        Group& g = groups[router->ShardFor(ks.keys[key])];
        g.keys.push_back(ks.keys[key]);
        std::string value(ks.size[key], '\0');
        FillValue(value.data(), value.size(), ks.hash[key], 1, ks.pattern.data());
        g.values.push_back(IOBuf::CopyBuffer(value));
      }
      rounds.push_back(std::move(groups));
    }
    double shard_ns = 0;
    double total_ns = 0;
    std::size_t results = 0;
    for (auto& groups : rounds) {
      for (Group& g : groups) {
        if (g.keys.empty()) {
          continue;
        }
        std::unique_ptr<IOBuf> body;
        std::vector<std::string> parsed_keys;
        std::unique_ptr<IOBuf> reply;
        std::vector<memcached::ShardRouter::GetResult> out;
        double build = TimedNs([&] { body = dist::BuildKeyVectorBody(g.keys); });
        double shard = TimedNs([&] {
          dist::ParseKeyVectorBody(body.get(), &parsed_keys);
          reply = memcached::BuildMultiGetReply(std::move(g.values));
        });
        double parse = TimedNs([&] {
          memcached::ParseMultiGetReply(std::move(reply), g.keys.size(), &out);
        });
        results += out.size();
        shard_ns += shard;
        total_ns += build + shard + parse;
      }
    }
    double n = static_cast<double>(std::max<std::size_t>(1, multigets));
    r.codec_ns_per_op = total_ns / n;
    r.shard_codec_ns_per_op = shard_ns / n;
    if (results != multigets * kMultiGetKeys) {
      std::fprintf(stderr, "kvbench: codec replay returned %zu results\n", results);
    }
  });
  return r;
}

Metrics PerLayer(Bench& b, std::vector<Op> (&fixed)[kLanes], double untraced_host_ops) {
  const Counters& a = b.at_fixed_start;
  const Counters& f = b.at_fixed_end;
  const Counters& e = b.at_end;
  const Workload& w = b.workload();
  double ops = static_cast<double>(std::max<std::uint64_t>(1, b.tally.attempted));
  auto per_op = [ops](std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - from) / ops;
  };
  auto ratio = [](double num, double den) { return den != 0 ? num / den : 0.0; };

  obs::Histogram::Snapshot handler = HistDelta(a.handler, e.handler);
  obs::Histogram::Snapshot hook = HistDelta(a.hook, e.hook);
  obs::Histogram::Snapshot client_handler = HistDelta(a.client_handler, e.client_handler);
  double window = static_cast<double>(std::max<std::uint64_t>(1, b.fixed_end - b.fixed_start));
  double busiest = 0;
  for (std::size_t c = 0; c < a.core_busy.size(); ++c) {
    busiest = std::max(busiest, static_cast<double>(f.core_busy[c] - a.core_busy[c]) / window);
  }
  double busy_per_op = static_cast<double>(handler.sum) / ops;

  // Fixed-phase tail: which ops were slow, and was the wait in the client queue (lateness)
  // or after the send (network, server)?
  std::vector<std::uint64_t> latencies, lateness;
  for (const auto& span : b.spans) {
    latencies.push_back(span.first);
    lateness.push_back(span.second);
  }
  LatencySummary lat = Summarize(latencies);
  LatencySummary late = Summarize(lateness);
  std::size_t slow = 0, slow_late = 0;
  for (const auto& span : b.spans) {
    if (span.first > lat.p99) {
      ++slow;
      slow_late += span.second * 2 > span.first ? 1 : 0;
    }
  }

  memcached::KvStore& store =
      w.sharded ? b.shard_store(0) : b.server_store();
  Replay replay = ReplayLayers(b, fixed, b.server_node(0), store);

  std::uint64_t shard_total = 0, shard_max = 0;
  for (std::size_t s = 0; s < e.shard_ops.size(); ++s) {
    std::uint64_t d = e.shard_ops[s] - a.shard_ops[s];
    shard_total += d;
    shard_max = std::max(shard_max, d);
  }
  double shard_mean = e.shard_ops.empty() ? 0 : static_cast<double>(shard_total) /
                                                    static_cast<double>(e.shard_ops.size());

  // Replayed server-side self time per op, for the unattributed share.
  double get_share = w.get_share;
  double attributed;
  if (w.sharded) {
    attributed = get_share * (replay.shard_codec_ns_per_op + kMultiGetKeys * replay.kv_get_ns) +
                 (1 - get_share) * 2 * replay.kv_set_ns;
  } else {
    attributed = replay.parse_ns_per_req + get_share * replay.kv_get_ns +
                 (1 - get_share) * replay.kv_set_ns;
  }
  double hits = static_cast<double>(b.key_hits);
  double lookups = static_cast<double>(b.key_lookups);
  double pool_hits = static_cast<double>(e.pool_hits - a.pool_hits);
  double pool_all = pool_hits + static_cast<double>(e.pool_misses - a.pool_misses);
  // Bytes the applications handed to TCP: memcached requests and responses, or Messenger
  // payloads with their 8-byte frame headers.
  double app_bytes = w.sharded ? static_cast<double>((e.payload - a.payload) +
                                                     8 * (e.messages - a.messages))
                               : static_cast<double>(b.app_bytes);
  double wire_bytes = static_cast<double>(e.wire_bytes - a.wire_bytes);

  return {
      {"event.busy_ns_per_op", busy_per_op, "ns/op"},
      {"event.busiest_core_share", busiest, "fraction"},
      {"event.hook_ns_per_op", static_cast<double>(hook.sum) / ops, "ns/op"},
      {"event.xcore_pushes_per_op", per_op(a.xcore_pushes, e.xcore_pushes), "1/op"},
      {"event.xcore_wakeups_per_op", per_op(a.xcore_wakeups, e.xcore_wakeups), "1/op"},
      {"event.handler_p999_ns", static_cast<double>(handler.P999()), "ns"},
      {"event.handlers_over_1ms", HandlersOverOneMs(handler), "count"},
      {"sim.calendar_entries_per_op", per_op(a.calendar, e.calendar), "1/op"},
      {"sim.deferred_wakes_per_op", per_op(a.deferred, e.deferred), "1/op"},
      {"sim.tx_kicks_per_op", per_op(a.tx_kicks, e.tx_kicks), "1/op"},
      {"sim.irqs_per_op", per_op(a.irqs, e.irqs), "1/op"},
      {"sim.frames_per_op", per_op(a.frames, e.frames), "1/op"},
      {"net.tx_segments_per_op", per_op(a.tx_segments, e.tx_segments), "1/op"},
      {"net.bytes_per_segment",
       ratio(static_cast<double>(e.tx_bytes - a.tx_bytes),
             static_cast<double>(e.tx_segments - a.tx_segments)),
       "B"},
      {"net.sends_coalesced_per_op", per_op(a.coalesced_sends, e.coalesced_sends), "1/op"},
      {"net.rx_coalesced_bytes_per_op", per_op(a.rx_coalesced, e.rx_coalesced), "B/op"},
      {"net.retransmit_share", app_bytes > 0 ? wire_bytes / app_bytes - 1 : 0.0, "fraction"},
      {"mem.heap_allocs_per_op",
       static_cast<double>(e.heap - a.heap - b.client_allocs) / ops, "1/op"},
      {"mem.iobuf_allocs_per_op", per_op(a.iobuf, e.iobuf), "1/op"},
      {"mem.pool_hit_rate", ratio(pool_hits, pool_all), "fraction"},
      {"mem.remote_frees_per_op", per_op(a.remote_frees, e.remote_frees), "1/op"},
      {"mem.pool_in_use_hwm", static_cast<double>(mem::stats().pool_in_use_hwm.load()), "count"},
      {"memcached.parse_ns_per_req", replay.parse_ns_per_req, "ns"},
      {"memcached.kv_get_ns", replay.kv_get_ns, "ns"},
      {"memcached.kv_set_ns", replay.kv_set_ns, "ns"},
      {"memcached.bad_frames", static_cast<double>(e.bad_frames - a.bad_frames), "count"},
      {"memcached.hit_ratio", ratio(hits, lookups), "fraction"},
      {"shard.rpcs_per_op", per_op(a.client_messages, e.client_messages), "1/op"},
      {"shard.imbalance",
       shard_mean > 0 ? static_cast<double>(shard_max) / shard_mean - 1 : 0.0, "fraction"},
      {"shard.busy_ns_per_op", static_cast<double>(e.shard_busy - a.shard_busy) / ops, "ns/op"},
      {"dist.codec_ns_per_op", replay.codec_ns_per_op, "ns/op"},
      {"dist.messages_per_op", per_op(a.messages, e.messages), "1/op"},
      {"dist.payload_bytes_per_op", per_op(a.payload, e.payload), "B/op"},
      {"dist.rpc_timeouts", e.rpc_timeouts - a.rpc_timeouts, "count"},
      {"dist.rpc_retries", e.rpc_retries - a.rpc_retries, "count"},
      {"dist.control_locks", static_cast<double>(e.control_locks - a.control_locks), "count"},
      {"obs.spans_per_op", per_op(a.spans, e.spans), "1/op"},
      {"loadgen.late_us_p99", static_cast<double>(late.p99) / 1000.0, "us"},
      {"loadgen.client_ns_per_op",
       static_cast<double>(CyclesToNs(b.client_cycles)) / ops, "ns/op"},
      {"loadgen.heap_allocs_per_op", static_cast<double>(b.client_allocs) / ops, "1/op"},
      {"loadgen.client_handler_p999_ns", static_cast<double>(client_handler.P999()), "ns"},
      {"loadgen.handlers_over_1ms", HandlersOverOneMs(client_handler), "count"},
      {"tail.latency_p999_us", static_cast<double>(lat.p999) / 1000.0, "us"},
      {"tail.slow_late_share", ratio(static_cast<double>(slow_late), static_cast<double>(slow)),
       "fraction"},
      {"trace.unattributed_share", busy_per_op > 0 ? 1 - attributed / busy_per_op : 0.0,
       "fraction"},
      {"trace.overhead_share", 1 - HostOpsPerSecond(b) / untraced_host_ops, "fraction"},
  };
}

// Prints the result line; a metric that is not a finite number makes the run incorrect.
// Returns whether the run is correct.
bool PrintResult(bool correct, const FailureTally& tally, const Metrics& metrics) {
  for (const Metric& m : metrics) {
    correct = correct && std::isfinite(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct;
}

void PrintTally(const char* what, const FailureTally& t) {
  std::printf("# %s: attempted=%" PRIu64 " failed=%" PRIu64 " (refused=%" PRIu64
              " unsent=%" PRIu64 " timeout=%" PRIu64 " error=%" PRIu64 " miss=%" PRIu64
              " bad_value=%" PRIu64 ")\n",
              what, t.attempted, t.failed(), t.refused, t.unsent, t.timeout, t.error, t.miss,
              t.bad_value);
}

int Usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload <etc_1core|sharded_multiget|write_heavy_4core> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(argv[i + 1]);
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seconds <= 0 || argc % 2 == 0) {
    return Usage();
  }

  if (trace == 0) {
    Inputs in = MakeInputs(*w, seed, seconds);
    std::vector<double> setups;
    std::unique_ptr<Bench> bench;
    for (int k = 0; k < kSetups; ++k) {
      bench.reset();
      bench = std::make_unique<Bench>(*w, in, /*traced=*/false);
      double t0 = HostSeconds();
      if (!bench->Setup()) {
        return 1;
      }
      setups.push_back(HostSeconds() - t0);
    }
    std::sort(setups.begin(), setups.end());
    bool ok = bench->RunMeasured();
    LatencySummary lat = Summarize(LatencyValues(*bench));
    std::printf("# %s seed=%" PRIu64 ": fixed-rate %.0f ops/s offered; whole-phase latency "
                "p50=%.2fus p99=%.2fus p999=%.2fus over %zu samples (printed, not gated)\n",
                w->name, seed, w->fixed_rate, lat.p50 / 1000.0, lat.p99 / 1000.0,
                lat.p999 / 1000.0, lat.samples);
    std::printf("# setups (s): %.3f %.3f %.3f; measured phases took %.2f host s\n", setups[0],
                setups[1], setups[2], bench->host_measured_s);
    PrintTally("ops", bench->tally);
    bool correct = ok && bench->tally.failed() == 0 && lat.p99_supported;
    return PrintResult(correct, bench->tally, EndToEnd(*bench, setups[setups.size() / 2]))
               ? 0
               : 1;
  }

  // Traced: the same inputs untraced, then traced; each gets half the measured budget.
  Inputs in = MakeInputs(*w, seed, seconds / 2);
  double untraced_host_ops = 0;
  FailureTally both;
  {
    Bench plain(*w, in, /*traced=*/false);
    if (!plain.Setup() || !plain.RunMeasured()) {
      return 1;
    }
    untraced_host_ops = HostOpsPerSecond(plain);
    PrintTally("untraced ops", plain.tally);
    both = plain.tally;
  }
  Bench traced(*w, in, /*traced=*/true);
  if (!traced.Setup()) {
    return 1;
  }
  bool ok = traced.RunMeasured();
  Metrics metrics = PerLayer(traced, in.fixed, untraced_host_ops);
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintTally("traced ops", traced.tally);
  both.Merge(traced.tally);
  bool correct = ok && both.failed() == 0;
  return PrintResult(correct, both, metrics) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
