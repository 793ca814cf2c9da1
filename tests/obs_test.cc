// Telemetry-plane tests: obs::Histogram bucket math and quantile error bound, SnapshotNow's
// merge of per-core subsystem counters, and the GET /metrics exposition over sim TCP.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/http/http_server.h"
#include "src/dist/messenger.h"
#include "src/event/event_manager.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

// --- Histogram bucket math -------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Values below kSub get exact unit buckets.
  for (std::uint64_t v = 0; v < obs::Histogram::kSub; ++v) {
    EXPECT_EQ(obs::Histogram::Index(v), v);
    EXPECT_EQ(obs::Histogram::LowerBound(v), v);
    EXPECT_EQ(obs::Histogram::UpperBound(v), v);
  }
  // Every value lands in a bucket whose [lower, upper] range contains it, and the log-linear
  // width bound holds: upper <= lower * (1 + 1/kSub) for every non-unit bucket.
  const std::uint64_t probes[] = {8,    9,     15,   16,        17,       255,
                                  256,  1000,  4095, 4096,      99999,    1u << 20,
                                  (1u << 20) + 1,   (1ull << 40) + 12345, ~0ull >> 1};
  for (std::uint64_t v : probes) {
    std::size_t i = obs::Histogram::Index(v);
    ASSERT_LT(i, obs::Histogram::kBuckets) << v;
    EXPECT_LE(obs::Histogram::LowerBound(i), v) << v;
    EXPECT_GE(obs::Histogram::UpperBound(i), v) << v;
  }
  // Buckets tile the axis: each upper bound is exactly the next lower bound minus one.
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::UpperBound(i) + 1, obs::Histogram::LowerBound(i + 1)) << i;
  }
}

TEST(Histogram, QuantileWithinDocumentedErrorBound) {
  // The documented contract: estimate >= exact and <= exact * (1 + 1/kSub) + 1. Checked
  // against an exact sort over a deterministic mixed-scale sample.
  std::mt19937_64 rng(42);
  obs::Histogram hist;
  std::vector<std::uint64_t> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform-ish: scale spans 2^0 .. 2^30.
    std::uint64_t scale = 1ull << (rng() % 31);
    std::uint64_t v = rng() % (scale + 1);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  obs::Histogram::Snapshot snapshot = hist.TakeSnapshot();
  EXPECT_EQ(snapshot.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
    if (rank < 1) {
      rank = 1;
    }
    std::uint64_t exact = values[rank - 1];
    std::uint64_t estimate = snapshot.Quantile(q);
    EXPECT_GE(estimate, exact) << "q=" << q;
    double bound = static_cast<double>(exact) *
                       (1.0 + 1.0 / static_cast<double>(obs::Histogram::kSub)) + 1.0;
    EXPECT_LE(static_cast<double>(estimate), bound) << "q=" << q;
  }
}

TEST(Histogram, SnapshotMergeIsSampleUnion) {
  // Merging per-core snapshots must behave as if every sample landed in one histogram —
  // the cross-core aggregation contract.
  obs::Histogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) {
    a.Record(v);
  }
  for (std::uint64_t v = 1000; v < 1100; ++v) {
    b.Record(v);
  }
  obs::Histogram::Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  obs::Histogram both;
  for (std::uint64_t v = 0; v < 100; ++v) {
    both.Record(v);
  }
  for (std::uint64_t v = 1000; v < 1100; ++v) {
    both.Record(v);
  }
  obs::Histogram::Snapshot expected = both.TakeSnapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  for (double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), expected.Quantile(q)) << q;
  }
}

// --- Snapshot over the subsystem counters ----------------------------------------------------

TEST(Snapshot, MergesEveryCoresEventCounters) {
  // With events run on both cores of a 2-core node, SnapshotNow must sum the per-core
  // EventManager counters, label one run-queue series per core, and merge both cores'
  // handler-latency histograms.
  Testbed bed;
  TestbedNode node = bed.AddNode("node", 2, kServerIp);
  node.Spawn(0, [&] {
    obs::ObsRoot::For(*node.runtime);  // attaches the level switch: histograms record
    for (int i = 0; i < 5; ++i) {
      node.Spawn(0, [] {});
      node.Spawn(1, [] {});
    }
  });
  bed.world().Run();

  auto& em_root = node.runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  std::uint64_t synthetic = 0;
  obs::Histogram::Snapshot handler;
  for (std::size_t core = 0; core < 2; ++core) {
    EventManager& em = em_root.RepFor(core);
    EXPECT_GE(em.stats().synthetic, 5u) << core;
    synthetic += em.stats().synthetic;
    obs::Histogram::Snapshot h;
    em.handler_latency_hist().Sample(&h);
    EXPECT_GT(h.count, 0u) << core;
    handler.Merge(h);
  }

  obs::ObsRoot::MetricsSnapshot snapshot = obs::ObsRoot::For(*node.runtime).SnapshotNow();
  double event_synthetic = -1;
  std::vector<std::string> depth_series;
  for (const auto& sample : snapshot.samples) {
    if (sample.first == "event_synthetic") {
      event_synthetic = sample.second;
    }
    if (sample.first.rfind("event_run_queue_depth", 0) == 0) {
      depth_series.push_back(sample.first);
    }
  }
  EXPECT_EQ(event_synthetic, static_cast<double>(synthetic));
  ASSERT_EQ(depth_series.size(), 2u);
  EXPECT_EQ(depth_series[0], "event_run_queue_depth{core=\"0\"}");
  EXPECT_EQ(depth_series[1], "event_run_queue_depth{core=\"1\"}");
  std::uint64_t handler_count = 0;
  for (const auto& hist : snapshot.hists) {
    if (hist.first == "event_handler_latency_ns") {
      handler_count = hist.second.count;
    }
  }
  EXPECT_EQ(handler_count, handler.count);
  std::string text = obs::ObsRoot::RenderText(snapshot);
  EXPECT_NE(text.find("event_handler_latency_ns_count " + std::to_string(handler.count)),
            std::string::npos);
}

// --- Exposition surfaces ---------------------------------------------------------------------

// Accumulates raw received bytes (the HTTP client's side).
class StringSink final : public TcpHandler {
 public:
  explicit StringSink(std::string& out) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    out_ += std::string(data->AsStringView());
  }

 private:
  std::string& out_;
};

TEST(Exposition, MetricsEndpointServesEveryDefaultFamily) {
  // GET /metrics over sim TCP: the response must carry the re-homed legacy stats families
  // (event, mem, net, messenger), the plane's own meta-metrics, and histogram quantile
  // samples — and a plain GET / on the same keep-alive connection still gets the static
  // 148-byte response.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string response;
  server.Spawn(0, [&] {
    // The messenger family appears once the subsystem exists (collectors sample lazily).
    dist::Messenger::For(*server.runtime);
    new http::HttpServer(*server.net, 8080);
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8080).Then([&response](
                                                                       Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<StringSink>(response)));
      pcb.Send(IOBuf::CopyBuffer("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
      pcb.Send(IOBuf::CopyBuffer("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
    });
  });
  bed.world().Run();
  // First response: the static page, byte-for-byte.
  ASSERT_GE(response.size(), 148u);
  EXPECT_EQ(response.substr(0, 15), "HTTP/1.1 200 OK");
  std::string metrics = response.substr(148);
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* family :
       {"event_interrupts", "event_handler_latency_ns_count",
        "event_handler_latency_ns{q=\"0.99\"}", "interconnect_batch_size_count",
        "mem_iobuf_allocs", "mem_pool_hits", "net_tcp_rx", "net_tcp_tx_segments",
        "messenger_bad_frames", "obs_spans_recorded", "obs_level",
        "event_run_queue_depth{core=\"0\"}"}) {
    EXPECT_NE(metrics.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace ebbrt
