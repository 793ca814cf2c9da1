#include "src/apps/memcached/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/apps/memcached/protocol.h"
#include "src/event/timer.h"
#include "src/rcu/rcu.h"

namespace ebbrt {
namespace memcached {

std::string ShardRecordKey(std::size_t shard_index) {
  return "service/memcached/" + std::to_string(shard_index);
}

std::string EncodeShardRecord(Ipv4Addr addr, EbbId service) {
  return addr.ToString() + "#" + std::to_string(service);
}

bool ParseShardRecord(const std::string& record, ShardEndpoint* out) {
  unsigned a, b, c, d;
  unsigned long service = 0;
  if (std::sscanf(record.c_str(), "%u.%u.%u.%u#%lu", &a, &b, &c, &d, &service) != 5 ||
      a > 255 || b > 255 || c > 255 || d > 255 || service == 0 ||
      service > 0xffffffffull) {
    return false;
  }
  out->addr = Ipv4Addr::Of(a, b, c, d);
  out->service = static_cast<EbbId>(service);
  return true;
}

// --- ShardService -----------------------------------------------------------------------------

ShardService::ShardService(Runtime& runtime, std::size_t shard_index, Config config)
    : dist::RpcServer(runtime, kShardServiceBase + static_cast<EbbId>(shard_index)),
      shard_index_(shard_index), config_(std::move(config)),
      store_(RcuManagerRoot::For(runtime)) {
  Kassert(shard_index < kMaxShards, "ShardService: shard index out of range");
}

void ShardService::HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                              std::uint32_t /*aux*/, std::unique_ptr<IOBuf> body) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (config_.on_request) {
    config_.on_request();
  }
  switch (opcode) {
    case kShardOpGet: {
      std::size_t body_len = body != nullptr ? body->ComputeChainDataLength() : 0;
      if (body_len > kMaxKeyLen) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ReplyError(from, request_id, "shard: oversized key");
        return;
      }
      // A single-segment body (the common case) is looked up as a view straight over the
      // wire buffer; only a key that straddled segments pays the flatten.
      std::string key_storage;
      std::string_view key;
      if (body != nullptr && body->Next() == nullptr) {
        key = {reinterpret_cast<const char*>(body->Data()), body->Length()};
      } else {
        key_storage = dist::ChainToString(body.get());
        key = key_storage;
      }
      ItemPtr item = store_.Get(key);
      if (item == nullptr) {
        Reply(from, request_id, /*aux=*/0, nullptr);
        return;
      }
      // The reply body is a refcounted view of the stored item — no copy between the
      // store and the wire, exactly like the single-node GET path.
      Reply(from, request_id, /*aux=*/1, MakeValueBuffer(std::move(item)));
      return;
    }
    case kShardOpSet: {
      // Bounds come straight off the wire lengths ([u32 klen][key][value]) before any byte
      // of the body is flattened: an oversized item is rejected without sizing a buffer.
      std::size_t body_len = body != nullptr ? body->ComputeChainDataLength() : 0;
      std::uint32_t klen_net = 0;
      if (body_len >= sizeof(klen_net)) {
        std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(&klen_net);
        std::size_t need = sizeof(klen_net);
        for (const IOBuf* b = body.get(); b != nullptr && need > 0; b = b->Next()) {
          std::size_t take = std::min(need, b->Length());
          std::memcpy(dst, b->Data(), take);
          dst += take;
          need -= take;
        }
      }
      std::size_t klen = NetToHost32(klen_net);
      if (body_len >= sizeof(klen_net) && sizeof(klen_net) + klen <= body_len &&
          (klen > kMaxKeyLen || body_len - sizeof(klen_net) - klen > kMaxValueLen)) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ReplyError(from, request_id, "shard: oversized item");
        return;
      }
      std::string key;
      std::string value;
      if (!dist::ParseLenPrefixedBody(dist::ChainToString(body.get()), &key, &value)) {
        ReplyError(from, request_id, "shard: malformed SET body");
        return;
      }
      store_.Set(key, value, 0);
      Reply(from, request_id, /*aux=*/1, nullptr);
      return;
    }
    case kShardOpMultiGet: {
      std::vector<std::string> keys;
      if (!dist::ParseKeyVectorBody(body.get(), &keys)) {
        // Malformed batch body: reject through the normal RPC error path (the caller's
        // whole-batch future fails), never assert — the frame itself was sound.
        ReplyError(from, request_id, "shard: malformed MULTIGET body");
        return;
      }
      std::vector<std::unique_ptr<IOBuf>> values;
      values.reserve(keys.size());
      std::uint32_t hits = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        // The batch is N logical requests under one frame: charge modeled service time per
        // KEY, not per frame (the top-of-function on_request covered key 0) — the bulk win
        // measured by benches is header/dispatch amortization, not discounted work.
        if (i > 0 && config_.on_request) {
          config_.on_request();
        }
        if (keys[i].size() > kMaxKeyLen) {
          // Per-item bound inside a batch: an oversized key can't be stored, so it simply
          // misses — but it is counted, since a conforming client never sends one.
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          values.push_back(nullptr);
          continue;
        }
        ItemPtr item = store_.Get(keys[i]);
        if (item == nullptr) {
          values.push_back(nullptr);
          continue;
        }
        hits++;
        values.push_back(MakeValueBuffer(std::move(item)));
      }
      Reply(from, request_id, /*aux=*/hits, BuildMultiGetReply(std::move(values)));
      return;
    }
  }
  ReplyError(from, request_id, "shard: unknown opcode");
}

// --- kShardOpMultiGet reply marshaling --------------------------------------------------------

std::unique_ptr<IOBuf> BuildMultiGetReply(std::vector<std::unique_ptr<IOBuf>> values) {
  // Per entry: one 4-byte status-word buffer, then the value chain itself (spliced, not
  // copied). JoinChains splices the whole record list in one O(elements) pass.
  std::vector<std::unique_ptr<IOBuf>> parts;
  parts.reserve(values.size() * 2);
  for (auto& value : values) {
    auto word_buf = IOBuf::CreateReserveFor<sizeof(std::uint32_t)>(0);
    word_buf->Append(sizeof(std::uint32_t));
    std::uint32_t word = 0;
    if (value != nullptr) {
      word = HostToNet32(kMultiGetFoundBit |
                         static_cast<std::uint32_t>(value->ComputeChainDataLength()));
    }
    std::memcpy(word_buf->WritableData(), &word, sizeof(word));
    parts.push_back(std::move(word_buf));
    if (value != nullptr) {
      parts.push_back(std::move(value));
    }
  }
  return IOBuf::JoinChains(std::move(parts));
}

bool ParseMultiGetReply(std::unique_ptr<IOBuf> body, std::size_t expected,
                        std::vector<ShardRouter::GetResult>* out) {
  out->clear();
  out->reserve(expected);
  dist::ChainSplitter splitter(std::move(body));
  for (std::size_t i = 0; i < expected; ++i) {
    std::uint32_t word = 0;
    if (!splitter.ReadU32(&word)) {
      return false;  // fewer records than the request had keys
    }
    ShardRouter::GetResult result;
    result.found = (word & kMultiGetFoundBit) != 0;
    std::uint32_t len = word & ~kMultiGetFoundBit;
    if (result.found && len != 0) {
      // Zero-copy: the value is split off as a shared view of the reply chain's storage.
      result.value = splitter.SplitBytes(len);
      if (result.value == nullptr) {
        return false;  // value bytes ran short of the declared length
      }
    }
    out->push_back(std::move(result));
  }
  return splitter.Remaining() == 0;  // exact consumption: trailing bytes are malformed
}

// --- Discovery --------------------------------------------------------------------------------

Future<void> AnnounceShard(Runtime& runtime, Ipv4Addr frontend, std::size_t shard_index,
                           Ipv4Addr self) {
  EbbId service = kShardServiceBase + static_cast<EbbId>(shard_index);
  return dist::GlobalIdMap::For(runtime, frontend)
      .Set(ShardRecordKey(shard_index), EncodeShardRecord(self, service));
}

Future<std::vector<ShardEndpoint>> DiscoverShards(Runtime& runtime, Ipv4Addr frontend,
                                                  std::size_t num_shards) {
  // Shards announce concurrently with clients discovering, so a missing record is the
  // normal bring-up race: GetWithRetry absorbs it with bounded backoff (a shard that never
  // announces surfaces as a clean error through the future). A record that exists but
  // fails to parse never heals, so it fails immediately.
  struct Discovery {
    dist::GlobalIdMap* map = nullptr;
    std::size_t num_shards = 0;
    std::vector<ShardEndpoint> endpoints;
    Promise<std::vector<ShardEndpoint>> done;
    std::function<void(std::size_t)> next;
  };
  auto state = std::make_shared<Discovery>();
  state->map = &dist::GlobalIdMap::For(runtime, frontend);
  state->num_shards = num_shards;
  state->endpoints.resize(num_shards);
  Future<std::vector<ShardEndpoint>> result = state->done.GetFuture();
  // Resolve sequentially (N is small and this runs once at bring-up).
  state->next = [state](std::size_t index) {
    if (index == state->num_shards) {
      state->done.SetValue(std::move(state->endpoints));
      state->next = nullptr;  // break the self-capture cycle
      return;
    }
    dist::GlobalIdMap::RetryPolicy policy;
    policy.initial_backoff_ns = 100'000;  // announces land within a handful of RTTs
    policy.max_backoff_ns = 4'000'000;
    state->map->GetWithRetry(ShardRecordKey(index), policy)
        .Then([state, index](Future<std::string> f) {
          std::string record;
          try {
            record = f.Get();
            if (!ParseShardRecord(record, &state->endpoints[index])) {
              throw std::runtime_error("DiscoverShards: malformed record for " +
                                       ShardRecordKey(index) + ": " + record);
            }
          } catch (...) {
            state->done.SetException(std::current_exception());
            state->next = nullptr;
            return;
          }
          state->next(index + 1);
        });
  };
  state->next(0);
  return result;
}

// --- Versioned ring record --------------------------------------------------------------------

std::string EncodeRingRecord(const RingRecord& record) {
  std::string out = std::to_string(record.epoch) + "|";
  for (std::size_t i = 0; i < record.shards.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += EncodeShardRecord(record.shards[i].addr, record.shards[i].service);
  }
  return out;
}

bool ParseRingRecord(const std::string& record, RingRecord* out) {
  std::size_t bar = record.find('|');
  if (bar == std::string::npos || bar == 0) {
    return false;
  }
  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < bar; ++i) {
    char c = record[i];
    if (c < '0' || c > '9') {
      return false;
    }
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (epoch > (~std::uint64_t{0} - digit) / 10) {
      return false;  // epoch overflows u64: nonsense record
    }
    epoch = epoch * 10 + digit;
  }
  std::vector<ShardEndpoint> shards;
  std::size_t pos = bar + 1;
  while (pos <= record.size()) {
    std::size_t comma = record.find(',', pos);
    std::size_t end = (comma == std::string::npos) ? record.size() : comma;
    ShardEndpoint endpoint;
    if (end == pos || !ParseShardRecord(record.substr(pos, end - pos), &endpoint)) {
      return false;  // empty or malformed endpoint entry
    }
    shards.push_back(endpoint);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (shards.empty()) {
    return false;  // an empty shard list can never be routed to
  }
  out->epoch = epoch;
  out->shards = std::move(shards);
  return true;
}

Future<void> PublishRing(Runtime& runtime, Ipv4Addr frontend, const RingRecord& record) {
  return dist::GlobalIdMap::For(runtime, frontend)
      .Set(kRingRecordKey, EncodeRingRecord(record));
}

Future<RingRecord> FetchRing(Runtime& runtime, Ipv4Addr frontend) {
  return dist::GlobalIdMap::For(runtime, frontend)
      .GetWithRetry(kRingRecordKey)
      .Then([](Future<std::string> f) {
        std::string raw = f.Get();
        RingRecord record;
        if (!ParseRingRecord(raw, &record)) {
          throw std::runtime_error("FetchRing: malformed ring record: " + raw);
        }
        return record;
      });
}

// --- ShardRouter ------------------------------------------------------------------------------

ShardRouter::ShardRouter(Runtime& runtime, std::vector<ShardEndpoint> shards,
                         std::size_t vnodes_per_shard)
    : ShardRouter(runtime, RingRecord{/*epoch=*/0, std::move(shards)},
                  Config{vnodes_per_shard, /*replication=*/1, dist::CallOptions{},
                         dist::CallOptions{}, /*ring_refresh_ns=*/0, Ipv4Addr::Any()}) {}

ShardRouter::ShardRouter(Runtime& runtime, RingRecord ring, Config config)
    : runtime_(runtime), config_(std::move(config)) {
  Kassert(!ring.shards.empty(), "ShardRouter: no shards");
  Kassert(config_.replication >= 1, "ShardRouter: replication must be >= 1");
  ring_ = BuildRing(ring, config_.vnodes_per_shard);
  suspect_.assign(ring_->shards.size(), 0);
  per_shard_ops_.assign(ring_->shards.size(), 0);
  // Dial every shard up front (the pre-ring behavior); later epochs dial lazily on first
  // routed op.
  for (const ShardEndpoint& endpoint : ring_->shards) {
    ClientFor(endpoint);
  }
  StartRingWatcher();  // no-op unless Config asked for a periodic refresh
  // Join the machine's telemetry plane: the router's failover state machine and its RPC
  // clients' fault counters join /metrics, sampled only at snapshot time. The router is
  // per-core client state, so samples are a benign racy read of plain counters.
  obs_collector_ = obs::ObsRoot::For(runtime_).AddCollector(
      [this](obs::ObsRoot::MetricsSnapshot& out) {
        auto put = [&out](const char* name, std::uint64_t v) {
          out.samples.emplace_back(name, static_cast<double>(v));
        };
        put("router_failovers", stats_.failovers);
        put("router_suspects_marked", stats_.suspects_marked);
        put("router_ring_swaps", stats_.ring_swaps);
        put("router_stale_rings", stats_.stale_rings);
        put("router_malformed_rings", stats_.malformed_rings);
        put("router_refresh_failures", stats_.refresh_failures);
        put("router_write_skips", stats_.write_skips);
        put("router_ring_epoch", ring_->epoch);
        std::uint64_t timeouts = 0, retries = 0, late_drops = 0, peer_failures = 0,
                      pending = 0;
        for (const auto& entry : clients_) {
          const dist::RpcClient::Stats& s = entry.second->stats();
          timeouts += s.timeouts.load(std::memory_order_relaxed);
          retries += s.retries.load(std::memory_order_relaxed);
          late_drops += s.late_drops.load(std::memory_order_relaxed);
          peer_failures += s.peer_failures.load(std::memory_order_relaxed);
          pending += entry.second->pending_calls();
        }
        put("rpc_timeouts", timeouts);
        put("rpc_retries", retries);
        put("rpc_late_drops", late_drops);
        put("rpc_peer_failures", peer_failures);
        put("rpc_pending_calls", pending);
      });
}

ShardRouter::~ShardRouter() {
  StopRingWatcher();
  if (obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_)) {
    obs_root->RemoveCollector(obs_collector_);
  }
}

std::shared_ptr<const ShardRouter::Ring> ShardRouter::BuildRing(
    const RingRecord& record, std::size_t vnodes_per_shard) {
  auto ring = std::make_shared<Ring>();
  ring->epoch = record.epoch;
  ring->shards = record.shards;
  ring->points.reserve(record.shards.size() * vnodes_per_shard);
  for (std::size_t i = 0; i < record.shards.size(); ++i) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      // Ring points are named by shard INDEX, not address: the same shard count always
      // yields the same placement, so rebuilding a router (or a second client machine
      // building its own) routes identically.
      std::uint64_t point =
          ShardHash("shard/" + std::to_string(i) + "/vnode/" + std::to_string(v));
      ring->points.emplace_back(point, static_cast<std::uint32_t>(i));
    }
  }
  std::sort(ring->points.begin(), ring->points.end());
  return ring;
}

std::vector<std::uint32_t> ShardRouter::Ring::ReplicasFor(std::uint64_t hash,
                                                          std::size_t r) const {
  r = std::min(r, shards.size());
  std::vector<std::uint32_t> replicas;
  replicas.reserve(r);
  // First ring point clockwise from the key's hash (wrapping past the top), then keep
  // walking clockwise collecting DISTINCT shards until R are found.
  auto it = std::upper_bound(points.begin(), points.end(),
                             std::make_pair(hash, std::uint32_t{0xffffffff}));
  for (std::size_t walked = 0; walked < points.size() && replicas.size() < r; ++walked) {
    if (it == points.end()) {
      it = points.begin();
    }
    std::uint32_t shard = it->second;
    if (std::find(replicas.begin(), replicas.end(), shard) == replicas.end()) {
      replicas.push_back(shard);
    }
    ++it;
  }
  return replicas;
}

std::size_t ShardRouter::ShardFor(std::string_view key) const {
  return ring_->ReplicasFor(ShardHash(key), 1).front();
}

std::vector<std::uint32_t> ShardRouter::ReadOrder(const Ring& ring, std::string_view key) {
  std::vector<std::uint32_t> replicas =
      ring.ReplicasFor(ShardHash(key), config_.replication);
  // Healthy replicas first, ring order preserved within each class: a suspect primary stops
  // eating a timeout per read, but stays reachable as the last resort.
  std::stable_partition(replicas.begin(), replicas.end(),
                        [this](std::uint32_t shard) { return suspect_[shard] == 0; });
  return replicas;
}

dist::RpcClient* ShardRouter::ClientFor(const ShardEndpoint& endpoint) {
  auto it = clients_.find(endpoint.service);
  if (it != clients_.end()) {
    if (it->second->server() == endpoint.addr) {
      return it->second.get();
    }
    // The service moved machines across an epoch: re-dial. Calls pending on the old client
    // fail with RpcPeerLost through its teardown — they were addressed to a dead home.
    clients_.erase(it);
  }
  auto client =
      std::make_unique<dist::RpcClient>(runtime_, endpoint.service, endpoint.addr);
  dist::RpcClient* raw = client.get();
  clients_.emplace(endpoint.service, std::move(client));
  return raw;
}

void ShardRouter::MarkSuspect(const std::shared_ptr<const Ring>& ring,
                              std::uint32_t shard) {
  if (ring != ring_) {
    return;  // stale snapshot: the swap that replaced it already cleared suspicion
  }
  if (suspect_[shard] == 0) {
    suspect_[shard] = 1;
    ++stats_.suspects_marked;
  }
  // A transport failure is the best hint that membership moved: poll the ring now instead
  // of waiting out the watcher period.
  RefreshRing();
}

ShardRouter::OpTrace ShardRouter::BeginOpTrace() {
  OpTrace trace;
  obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_);
  if (obs_root == nullptr || !obs_root->tracing_on()) {
    return trace;
  }
  // The op's root span: adopt the core's ambient trace (a traced handler driving the
  // router) or start a fresh one. Every shard RPC the op issues — including failover
  // re-issues rounds later — parents into this span.
  obs::MetricRegistry& rep = obs_root->RepFor(CurrentContext().machine_core);
  obs::MetricRegistry::TraceContext ctx = rep.current();
  trace.trace_id = ctx.trace_id != 0 ? ctx.trace_id : rep.NewTraceId();
  trace.parent_span = ctx.trace_id != 0 ? ctx.span_id : 0;
  trace.span_id = rep.NewSpanId();
  trace.start_ns = obs_root->NowNs();
  return trace;
}

void ShardRouter::FinishOpTrace(const OpTrace& trace, std::uint16_t opcode,
                                obs::SpanStatus status) {
  if (trace.trace_id == 0) {
    return;
  }
  obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_);
  if (obs_root == nullptr) {
    return;
  }
  std::size_t core = CurrentContext().machine_core;
  obs::SpanRecord span;
  span.trace_id = trace.trace_id;
  span.span_id = trace.span_id;
  span.parent_span = trace.parent_span;
  span.service = kNullEbbId;  // logical router op, not a wire service
  span.opcode = opcode;
  span.kind = obs::SpanKind::kLocal;
  span.status = status;
  span.start_ns = trace.start_ns;
  span.end_ns = obs_root->NowNs();
  span.attempts = 1;
  span.core = static_cast<std::uint32_t>(core);
  obs_root->RepFor(core).RecordSpan(span);
}

Future<ShardRouter::GetResult> ShardRouter::Get(std::string_view key) {
  std::shared_ptr<const Ring> ring = ring_;  // op-wide snapshot (RCU read side)
  std::vector<std::uint32_t> replicas = ReadOrder(*ring, key);
  OpTrace trace = BeginOpTrace();
  Future<GetResult> result =
      TryGet(std::move(ring), std::string(key), std::move(replicas), 0, trace);
  if (trace.trace_id == 0) {
    return result;
  }
  return result.Then([this, trace](Future<GetResult> f) -> GetResult {
    try {
      GetResult r = f.Get();
      FinishOpTrace(trace, kShardOpGet, obs::SpanStatus::kOk);
      return r;
    } catch (...) {
      FinishOpTrace(trace, kShardOpGet, obs::SpanStatus::kError);
      throw;
    }
  });
}

Future<ShardRouter::GetResult> ShardRouter::TryGet(std::shared_ptr<const Ring> ring,
                                                   std::string key,
                                                   std::vector<std::uint32_t> replicas,
                                                   std::size_t index, OpTrace trace) {
  std::uint32_t shard = replicas[index];
  if (shard < per_shard_ops_.size()) {
    per_shard_ops_[shard]++;
  }
  // The shard RPC is issued under the op's root span as ambient context, so the client span
  // it records parents correctly — on the first attempt AND on failover re-issues.
  std::optional<obs::ObsRoot::TraceScope> scope;
  if (trace.trace_id != 0) {
    if (obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_)) {
      scope.emplace(*obs_root, trace.trace_id, trace.span_id);
    }
  }
  return ClientFor(ring->shards[shard])
      ->Call(kShardOpGet, 0, IOBuf::CopyBuffer(key), config_.read_options)
      .Then([this, ring = std::move(ring), key = std::move(key),
             replicas = std::move(replicas), index,
             trace](Future<dist::RpcClient::Response> f) mutable -> Future<GetResult> {
        try {
          dist::RpcClient::Response response = f.Get();
          GetResult result;
          result.found = response.aux != 0;
          result.value = std::move(response.body);
          return MakeReadyFuture<GetResult>(std::move(result));
        } catch (const dist::RpcTransportError&) {
          // No response will ever come from this replica: suspect it and try the key's
          // next one. Application errors (server threw) fall through untouched.
          MarkSuspect(ring, replicas[index]);
          if (index + 1 < replicas.size()) {
            ++stats_.failovers;
            return TryGet(std::move(ring), std::move(key), std::move(replicas), index + 1,
                          trace);
          }
          throw;  // every replica failed: surface the last transport error
        }
      });
}

Future<void> ShardRouter::Set(std::string_view key, std::string_view value) {
  std::shared_ptr<const Ring> ring = ring_;
  std::vector<std::uint32_t> replicas =
      ring->ReplicasFor(ShardHash(key), config_.replication);
  bool all_suspect = true;
  for (std::uint32_t shard : replicas) {
    if (suspect_[shard] == 0) {
      all_suspect = false;
      break;
    }
  }
  OpTrace trace = BeginOpTrace();
  std::optional<obs::ObsRoot::TraceScope> scope;
  if (trace.trace_id != 0) {
    if (obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_)) {
      scope.emplace(*obs_root, trace.trace_id, trace.span_id);
    }
  }
  std::vector<Future<void>> pending;
  pending.reserve(replicas.size());
  for (std::uint32_t shard : replicas) {
    if (!all_suspect && suspect_[shard] != 0) {
      ++stats_.write_skips;  // don't burn a deadline on a replica believed dead
      continue;
    }
    per_shard_ops_[shard]++;
    pending.push_back(
        ClientFor(ring->shards[shard])
            ->Call(kShardOpSet, 0, dist::BuildLenPrefixedBody(key, value),
                   config_.write_options)
            .Then([this, ring, shard](Future<dist::RpcClient::Response> f) {
              try {
                f.Get();
              } catch (const dist::RpcTransportError&) {
                MarkSuspect(ring, shard);
                throw;
              }
            }));
  }
  Future<void> joined = WhenAll(std::move(pending)).Then([](Future<void> f) { f.Get(); });
  if (trace.trace_id == 0) {
    return joined;
  }
  return joined.Then([this, trace](Future<void> f) {
    try {
      f.Get();
      FinishOpTrace(trace, kShardOpSet, obs::SpanStatus::kOk);
    } catch (...) {
      FinishOpTrace(trace, kShardOpSet, obs::SpanStatus::kError);
      throw;
    }
  });
}

Future<std::vector<ShardRouter::GetResult>> ShardRouter::MultiGet(
    const std::vector<std::string_view>& keys) {
  if (keys.empty()) {
    return MakeReadyFuture<std::vector<GetResult>>(std::vector<GetResult>{});
  }
  // Keys are copied once into the shared batch state: a group re-issued after a replica
  // failure runs long after the caller's string_views died.
  auto state = std::make_shared<MgState>();
  state->ring = ring_;
  state->keys.assign(keys.begin(), keys.end());
  state->results.resize(keys.size());
  state->trace = BeginOpTrace();
  std::vector<std::size_t> slots(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    slots[i] = i;
  }
  // Shards that already failed THIS BATCH: a re-issued group must not bounce back to the
  // replica that just timed out (suspect_ alone can't guarantee that — a ring swap between
  // rounds clears it).
  auto excluded = std::make_shared<std::vector<char>>(state->ring->shards.size(), 0);
  return MultiGetSlots(state, std::move(slots), excluded)
      .Then([this, state](Future<void> f) {
        try {
          f.Get();
        } catch (...) {
          FinishOpTrace(state->trace, kShardOpMultiGet, obs::SpanStatus::kError);
          throw;
        }
        FinishOpTrace(state->trace, kShardOpMultiGet, obs::SpanStatus::kOk);
        return std::move(state->results);
      });
}

Future<void> ShardRouter::MultiGetSlots(std::shared_ptr<MgState> state,
                                        std::vector<std::size_t> slots,
                                        std::shared_ptr<std::vector<char>> excluded) {
  // Scatter: each key goes to its first replica that hasn't failed this batch, preferring
  // non-suspect ones. slots group by chosen shard so the gather can write results straight
  // into request-order slots (duplicate keys simply occupy two slots of a sub-batch).
  constexpr std::uint32_t kNoShard = 0xffffffffu;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> groups;
  for (std::size_t slot : slots) {
    std::vector<std::uint32_t> replicas =
        state->ring->ReplicasFor(ShardHash(state->keys[slot]), config_.replication);
    std::uint32_t chosen = kNoShard;
    for (std::uint32_t shard : replicas) {
      if ((*excluded)[shard] == 0 && suspect_[shard] == 0) {
        chosen = shard;
        break;
      }
    }
    if (chosen == kNoShard) {
      for (std::uint32_t shard : replicas) {
        if ((*excluded)[shard] == 0) {
          chosen = shard;
          break;
        }
      }
    }
    if (chosen == kNoShard) {
      return MakeFailedFuture<void>(std::make_exception_ptr(dist::RpcPeerLost(
          "shard: every replica of '" + state->keys[slot] + "' failed")));
    }
    groups[chosen].push_back(slot);
  }
  // Scatter under the batch's root span: every per-shard RPC — first round or a failover
  // re-issue rounds later — records its client span as a child of the same root.
  std::optional<obs::ObsRoot::TraceScope> scope;
  if (state->trace.trace_id != 0) {
    if (obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_)) {
      scope.emplace(*obs_root, state->trace.trace_id, state->trace.span_id);
    }
  }
  std::vector<Future<void>> pending;
  pending.reserve(groups.size());
  for (auto& group : groups) {
    std::uint32_t shard = group.first;
    std::vector<std::size_t> group_slots = std::move(group.second);
    std::size_t count = group_slots.size();
    if (shard < per_shard_ops_.size()) {
      per_shard_ops_[shard] += count;
    }
    std::vector<std::string_view> group_keys;
    group_keys.reserve(count);
    for (std::size_t slot : group_slots) {
      group_keys.push_back(state->keys[slot]);
    }
    // ONE RPC per shard touched: the whole sub-batch rides a single kShardOpMultiGet frame
    // (and, via the Messenger's auto-cork, the whole fan-out leaves this event as at most
    // one wire segment per shard).
    pending.push_back(
        ClientFor(state->ring->shards[shard])
            ->Call(kShardOpMultiGet, static_cast<std::uint32_t>(count),
                   dist::BuildKeyVectorBody(group_keys), config_.read_options)
            .Then([this, state, excluded, shard, group_slots = std::move(group_slots),
                   count](Future<dist::RpcClient::Response> f) mutable -> Future<void> {
              try {
                dist::RpcClient::Response response = f.Get();
                std::vector<GetResult> partial;
                if (!ParseMultiGetReply(std::move(response.body), count, &partial)) {
                  throw std::runtime_error("shard: malformed MULTIGET reply");
                }
                for (std::size_t j = 0; j < count; ++j) {
                  state->results[group_slots[j]] = std::move(partial[j]);
                }
                return MakeReadyFuture<void>();
              } catch (const dist::RpcTransportError&) {
                // Exactly this group's keys re-scatter to their next replicas; groups that
                // answered keep their results (the batch fails only when some key exhausts
                // its replica set). Application errors propagate through WhenAll untouched.
                MarkSuspect(state->ring, shard);
                (*excluded)[shard] = 1;
                ++stats_.failovers;
                return MultiGetSlots(state, std::move(group_slots), excluded);
              }
            }));
  }
  return WhenAll(std::move(pending)).Then([](Future<void> f) { f.Get(); });
}

bool ShardRouter::AdoptRing(const RingRecord& record) {
  if (record.shards.empty()) {
    return false;  // never adopt an unroutable ring (ParseRingRecord rejects these anyway)
  }
  if (record.epoch < ring_->epoch) {
    ++stats_.stale_rings;
    std::fprintf(stderr,
                 "ShardRouter: stale ring record (epoch %llu < installed %llu), keeping "
                 "last good ring\n",
                 static_cast<unsigned long long>(record.epoch),
                 static_cast<unsigned long long>(ring_->epoch));
    return false;
  }
  if (record.epoch == ring_->epoch) {
    return false;  // the watcher re-reading the installed epoch: the quiet steady state
  }
  bool same_shards = record.shards.size() == ring_->shards.size();
  for (std::size_t i = 0; same_shards && i < record.shards.size(); ++i) {
    same_shards = record.shards[i].addr == ring_->shards[i].addr &&
                  record.shards[i].service == ring_->shards[i].service;
  }
  // The swap: in-flight ops drain against the snapshot they captured; everything issued
  // after this line routes on the new epoch with a clean slate of suspicion.
  ring_ = BuildRing(record, config_.vnodes_per_shard);
  suspect_.assign(ring_->shards.size(), 0);
  if (!same_shards) {
    per_shard_ops_.assign(ring_->shards.size(), 0);
  }
  ++stats_.ring_swaps;
  return true;
}

void ShardRouter::RefreshRing() {
  if (config_.frontend.IsAny() || refresh_inflight_) {
    return;
  }
  refresh_inflight_ = true;
  // Plain Get, no retry ladder: the watcher (or the next suspect mark) IS the retry.
  dist::GlobalIdMap::For(runtime_, config_.frontend)
      .Get(kRingRecordKey)
      .Then([this](Future<std::string> f) {
        refresh_inflight_ = false;
        std::string raw;
        try {
          raw = f.Get();
        } catch (...) {
          ++stats_.refresh_failures;  // no record / frontend unreachable: keep last good
          return;
        }
        RingRecord record;
        if (!ParseRingRecord(raw, &record)) {
          ++stats_.malformed_rings;
          std::fprintf(stderr,
                       "ShardRouter: malformed ring record '%s', keeping last good ring "
                       "(epoch %llu)\n",
                       raw.c_str(), static_cast<unsigned long long>(ring_->epoch));
          return;
        }
        AdoptRing(record);
      });
}

void ShardRouter::StartRingWatcher() {
  if (watcher_timer_ != 0 || config_.ring_refresh_ns == 0 || config_.frontend.IsAny()) {
    return;
  }
  watcher_timer_ = Timer::Instance()->Start(
      config_.ring_refresh_ns, [this] { RefreshRing(); }, /*periodic=*/true);
}

void ShardRouter::StopRingWatcher() {
  if (watcher_timer_ == 0) {
    return;
  }
  Timer::Instance()->Stop(watcher_timer_);
  watcher_timer_ = 0;
}

double ShardRouter::Imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (std::uint64_t ops : per_shard_ops_) {
    total += ops;
    max = std::max(max, ops);
  }
  if (total == 0) {
    return 0.0;
  }
  double mean = static_cast<double>(total) / static_cast<double>(per_shard_ops_.size());
  return static_cast<double>(max) / mean - 1.0;
}

}  // namespace memcached
}  // namespace ebbrt
