// Network stack integration tests on the simulated testbed: ARP, UDP, DHCP, TCP handshake /
// data transfer / windowing / close, loss recovery, RTO timing, the packet path's allocation
// budget, core affinity, adaptive polling.
#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/timer.h"
#include "src/mem/gp_allocator.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

// Shared TcpHandler shapes for the TCP suites (everything subclasses TcpHandler — the
// legacy callback shim is gone).

// Echoes every received chain back; closes when the peer closes.
class EchoHandler final : public TcpHandler {
 public:
  void Receive(std::unique_ptr<IOBuf> data) override { Pcb().Send(std::move(data)); }
  void Close() override { Pcb().Close(); }
};

// Accumulates received bytes into an external string; closes when the peer closes.
class SinkHandler final : public TcpHandler {
 public:
  explicit SinkHandler(std::string* out = nullptr) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    if (out_ != nullptr) {
      *out_ += std::string(data->AsStringView());
    }
  }
  void Close() override { Pcb().Close(); }

 private:
  std::string* out_;
};

// Application-paced sender (the paper's pump loop): sends as much of `payload` as the window
// allows, resumes from SendReady, optionally closes when done.
class PumpHandler final : public TcpHandler {
 public:
  PumpHandler(const std::string& payload, bool close_when_done, std::size_t max_chunk = 0)
      : payload_(payload), close_when_done_(close_when_done), max_chunk_(max_chunk) {}
  void Receive(std::unique_ptr<IOBuf>) override {}
  void SendReady() override { Pump(); }
  void Pump() {
    while (offset_ < payload_.size()) {
      std::size_t window = Pcb().SendWindowRemaining();
      if (window == 0) {
        return;  // SendReady re-enters
      }
      std::size_t chunk = std::min(window, payload_.size() - offset_);
      if (max_chunk_ != 0) {
        chunk = std::min(chunk, max_chunk_);
      }
      ASSERT_TRUE(Pcb().Send(IOBuf::CopyBuffer(payload_.data() + offset_, chunk)));
      offset_ += chunk;
    }
    if (close_when_done_) {
      Pcb().Close();
    }
  }

 private:
  const std::string& payload_;
  std::size_t offset_ = 0;
  bool close_when_done_;
  std::size_t max_chunk_;
};

// Echoes like EchoHandler and runs `on_receive` first (on the server core).
class HookedEcho final : public TcpHandler {
 public:
  explicit HookedEcho(std::function<void()> on_receive) : on_receive_(std::move(on_receive)) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    on_receive_();
    Pcb().Send(std::move(data));
  }

 private:
  std::function<void()> on_receive_;
};

// Closed-loop request/response client: sends a kBytes request, waits for the whole echo,
// repeats `total` times. `on_exchange(n)` runs on the client core after the n-th response.
class PingPongClient final : public TcpHandler {
 public:
  static constexpr std::size_t kBytes = 64;
  PingPongClient(int total, std::function<void(int)> on_exchange)
      : total_(total), on_exchange_(std::move(on_exchange)) {}
  void Start() { Pcb().Send(IOBuf::CopyBuffer(request_, kBytes)); }
  void Receive(std::unique_ptr<IOBuf> data) override {
    received_ += data->ComputeChainDataLength();
    while (received_ >= kBytes) {
      received_ -= kBytes;
      on_exchange_(++done_);
      if (done_ < total_) {
        Start();
      }
    }
  }

 private:
  char request_[kBytes] = {};
  int total_;
  int done_ = 0;
  std::size_t received_ = 0;
  std::function<void(int)> on_exchange_;
};

// Two single-core machines running PingPongClient against HookedEcho over one connection.
// The server auto-corks, like the memcached server, so its echoes leave through TxBatcher.
struct PingPongBed {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);

  void Run(int total, std::function<void(int)> on_exchange,
           std::function<void()> on_server_receive = [] {}) {
    server.Spawn(0, [this, on_server_receive] {
      server.net->tcp().Listen(8010, [on_server_receive](TcpPcb pcb) {
        pcb.SetAutoCork(true);
        pcb.InstallHandler(
            std::unique_ptr<TcpHandler>(std::make_unique<HookedEcho>(on_server_receive)));
      });
    });
    client.Spawn(0, [this, total, on_exchange] {
      client.net->tcp().Connect(*client.iface, kServerIp, 8010).Then(
          [total, on_exchange](Future<TcpPcb> f) {
            TcpPcb pcb = f.Get();
            auto ping = std::make_unique<PingPongClient>(total, on_exchange);
            auto* raw = ping.get();
            pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(ping)));
            raw->Start();
          });
    });
    bed.world().Run();
  }
};

TEST(Net, ArpResolvesAcrossMachines) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  MacAddr resolved{};
  bool done = false;
  client.Spawn(0, [&] {
    client.iface->ArpFind(kServerIp).Then([&](Future<MacAddr> f) {
      resolved = f.Get();
      done = true;
    });
  });
  bed.world().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(resolved, server.nic->mac());
}

TEST(Net, ArpCacheHitIsSynchronous) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  bool second_was_sync = false;
  client.Spawn(0, [&] {
    client.iface->ArpFind(kServerIp).Then([&](Future<MacAddr>) {
      // Figure 2's cached case: the continuation fires before ArpFind returns.
      bool flag = false;
      client.iface->ArpFind(kServerIp).Then([&flag](Future<MacAddr>) { flag = true; });
      second_was_sync = flag;
    });
  });
  bed.world().Run();
  EXPECT_TRUE(second_was_sync);
}

TEST(Net, UdpRoundTrip) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string received_at_server;
  std::string received_at_client;
  server.Spawn(0, [&] {
    server.net->BindUdp(7000, [&](Ipv4Addr src, std::uint16_t sport,
                                  std::unique_ptr<IOBuf> data) {
      received_at_server = std::string(data->AsStringView());
      server.net->SendUdp(src, 7000, sport, IOBuf::CopyBuffer("pong!"));
    });
  });
  client.Spawn(0, [&] {
    client.net->BindUdp(7001, [&](Ipv4Addr, std::uint16_t, std::unique_ptr<IOBuf> data) {
      received_at_client = std::string(data->AsStringView());
    });
    client.net->SendUdp(kServerIp, 7001, 7000, IOBuf::CopyBuffer("ping?"));
  });
  bed.world().Run();
  EXPECT_EQ(received_at_server, "ping?");
  EXPECT_EQ(received_at_client, "pong!");
}

TEST(Net, UdpUnboundPortDropsAndCounts) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  client.Spawn(0, [&] {
    client.net->SendUdp(kServerIp, 9999, 4242, IOBuf::CopyBuffer("nobody home"));
  });
  bed.world().Run();
  EXPECT_EQ(server.net->stats().udp_dropped.load(), 1u);
}

TEST(Net, DhcpAcquiresLease) {
  Testbed bed;
  TestbedNode server = bed.AddNode("dhcp-server", 1, Ipv4Addr::Of(10, 0, 0, 1));
  TestbedNode client = bed.AddNode("booting", 1, Ipv4Addr::Any());
  DhcpServer dhcpd(*server.net, Ipv4Addr::Of(10, 0, 0, 100), 16,
                   Ipv4Addr::Of(255, 255, 255, 0), Ipv4Addr::Of(10, 0, 0, 1));
  Interface::IpConfig got;
  bool done = false;
  client.Spawn(0, [&] {
    dhcp::Acquire(*client.net, *client.iface).Then([&](Future<Interface::IpConfig> f) {
      got = f.Get();
      done = true;
    });
  });
  bed.world().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.addr, Ipv4Addr::Of(10, 0, 0, 100));
  EXPECT_EQ(got.gateway, Ipv4Addr::Of(10, 0, 0, 1));
  EXPECT_EQ(client.iface->addr(), got.addr);
  EXPECT_EQ(dhcpd.leases(), 1u);
}

TEST(Net, TcpConnectAndEcho) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string echoed;
  bool closed = false;

  class EchoClient final : public TcpHandler {
   public:
    EchoClient(std::string& echoed, bool& closed) : echoed_(echoed), closed_(closed) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      echoed_ += std::string(data->AsStringView());
      if (echoed_.size() >= 11) {
        Pcb().Close();
      }
    }
    void Close() override { closed_ = true; }

   private:
    std::string& echoed_;
    bool& closed_;
  };

  server.Spawn(0, [&] {
    server.net->tcp().Listen(8000, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<EchoHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8000).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<EchoClient>(echoed, closed)));
      pcb.Send(IOBuf::CopyBuffer("hello "));
      pcb.Send(IOBuf::CopyBuffer("world"));
    });
  });
  bed.world().Run();
  EXPECT_EQ(echoed, "hello world");
}

TEST(Net, TcpLargeTransferSegmentsAndReassembles) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  constexpr std::size_t kTotal = 50'000;  // crosses MSS and window boundaries
  std::string payload(kTotal, 'x');
  for (std::size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8001, [&received](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8001).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      // The application-owned pacing loop the paper prescribes: send as much as the window
      // allows, continue when ACKs open it again.
      auto pump = std::make_unique<PumpHandler>(payload, /*close_when_done=*/true);
      auto* raw = pump.get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(pump)));
      raw->Pump();
    });
  });
  bed.world().Run();
  EXPECT_EQ(received.size(), kTotal);
  EXPECT_EQ(received, payload);
}

TEST(Net, TcpSendBeyondWindowRefused) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  bool refused = false;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8002, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8002).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
      // 100 KiB exceeds the peer's 64 KiB advertised window: the stack must refuse rather
      // than buffer (the paper's no-stack-buffering contract).
      auto big = IOBuf::Create(100'000);
      refused = !pcb.Send(std::move(big));
    });
  });
  bed.world().Run();
  EXPECT_TRUE(refused);
}

TEST(Net, TcpApplicationControlsReceiveWindow) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::size_t window_seen = 0;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8003, [](TcpPcb pcb) {
      pcb.SetReceiveWindow(1024);  // the application throttles the peer
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8003).Then([&](Future<TcpPcb> f) {
      auto pcb = std::make_shared<TcpPcb>(f.Get());
      pcb->InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
      // Give the window update a round trip, then observe the clamped send window.
      Timer::Instance()->Start(2'000'000, [pcb, &window_seen] {
        window_seen = pcb->SendWindowRemaining();
      });
      pcb->Send(IOBuf::CopyBuffer("x"));
    });
  });
  bed.world().Run();
  EXPECT_LE(window_seen, 1024u);
  EXPECT_GT(window_seen, 0u);
}

TEST(Net, TcpRecoversFromPacketLoss) {
  Testbed bed;
  bed.fabric().SetLossRate(0.05, /*seed=*/7);  // 5% deterministic loss
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  constexpr std::size_t kTotal = 20'000;
  std::string payload(kTotal, '?');
  for (std::size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<char>('0' + i % 10);
  }
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8004, [&received](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8004).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      auto pump = std::make_unique<PumpHandler>(payload, /*close_when_done=*/false,
                                                /*max_chunk=*/kTcpMss);
      auto* raw = pump.get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(pump)));
      raw->Pump();
    });
  });
  // Loss recovery needs retransmission timeouts: run with a generous virtual horizon.
  bed.world().RunUntil(30ull * 1000 * 1000 * 1000);
  EXPECT_EQ(received, payload) << "loss recovery failed: got " << received.size() << "/"
                               << kTotal;
  EXPECT_GT(bed.fabric().frames_dropped(), 0u);  // the test actually exercised loss
}

TEST(Net, TcpSteadyStateRequestResponseDoesNotTouchTheHeap) {
  // The packet path's allocation budget: once the connection is up and both ARP caches hold
  // the peer, a request/response exchange performs zero generic-heap allocations on either
  // machine — Figure 2's ready-future send, segment retention, ACK processing, the
  // event-boundary TX flush, fabric delivery and the simulator around them. Warm-up covers
  // the first RTO periods, so every queue and slot table has reached its steady size; the
  // window spans several more, so the lazy RTO's timer re-arms are inside it.
  constexpr int kWarmup = 2000;
  constexpr int kWindow = 4000;
  auto& counter = mem::stats().generic_heap_allocs;
  PingPongBed pp;
  std::uint64_t before = 0;
  std::uint64_t allocs = ~0ull;
  std::uint64_t window_start_ns = 0;
  std::uint64_t window_ns = 0;
  pp.Run(kWarmup + kWindow, [&](int n) {
    if (n == kWarmup) {
      before = counter.load();
      window_start_ns = pp.bed.world().Now();
    } else if (n == kWarmup + kWindow) {
      allocs = counter.load() - before;
      window_ns = pp.bed.world().Now() - window_start_ns;
    }
  });
  EXPECT_GT(window_ns, 3 * 5'000'000u);
  EXPECT_EQ(allocs, 0u);
}

TEST(Net, TcpRtoRunsFromLastAckProgress) {
  // RTO semantics: the deadline is 5 ms after the last ACK progress, not after the first
  // unacked send. A 2 ms delay on the server's link (both directions) makes ACK progress
  // arrive 4 ms after a send. The client sends "A" at t0 and "B" at t0 + 1 ms; B alone is
  // lost. A's echo (carrying its ACK) lands at t0 + 4 ms with B still outstanding, so B's
  // retransmission must leave at t0 + 9 ms and its echo return at t0 + 13 ms. A deadline
  // kept from the first send would retransmit at t0 + 5 ms (echo at t0 + 9 ms).
  constexpr std::uint64_t kMs = 1'000'000;
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::size_t server_port = server.nic->port();
  sim::Switch::FaultPlan delayed;
  delayed.extra_delay_ns = 2 * kMs;
  sim::Switch::FaultPlan lossy = delayed;
  lossy.blackhole = true;

  std::string received;
  std::uint64_t t0 = 0;
  std::uint64_t b_arrival = 0;  // when B's echo reaches the client
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8011, [&](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<EchoHandler>()));
    });
  });
  class Recorder final : public TcpHandler {
   public:
    Recorder(SimWorld& world, std::string& got, std::uint64_t& b_at)
        : world_(world), got_(got), b_at_(b_at) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      got_ += std::string(data->AsStringView());
      if (got_.find('B') != std::string::npos && b_at_ == 0) {
        b_at_ = world_.Now();
      }
    }

   private:
    SimWorld& world_;
    std::string& got_;
    std::uint64_t& b_at_;
  };
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8011).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(
          std::make_unique<Recorder>(bed.world(), received, b_arrival)));
      bed.fabric().SetLinkFault(server_port, delayed);
      t0 = bed.world().Now();
      pcb.Send(IOBuf::CopyBuffer("A"));
      // A is in flight; only frames sent while the link is blackholed (B) are lost.
      bed.world().At(t0 + kMs / 2, [&] { bed.fabric().SetLinkFault(server_port, lossy); });
      Timer::Instance()->Start(kMs, [pcb]() mutable { pcb.Send(IOBuf::CopyBuffer("B")); });
      bed.world().At(t0 + 3 * kMs / 2,
                     [&] { bed.fabric().SetLinkFault(server_port, delayed); });
    });
  });
  bed.world().RunUntil(100 * kMs);
  EXPECT_EQ(received, "AB");  // both echoes came back; B's only via retransmission
  ASSERT_NE(b_arrival, 0u);
  EXPECT_GE(b_arrival, t0 + 25 * kMs / 2);
  EXPECT_LT(b_arrival, t0 + 27 * kMs / 2);
}

TEST(Net, TcpRtoKeepsOneTimerPerConnection) {
  // ACK progress only moves the RTO deadline, so each side holds at most the connection's
  // one RTO timer, plus the ARP retry timer armed at connect. A Stop/Start re-arm per ACK
  // would leave a cancelled entry queued for 5 ms each: hundreds at this exchange rate.
  PingPongBed pp;
  int done = 0;
  std::size_t client_max = 0;
  std::size_t server_max = 0;
  pp.Run(
      1000,
      [&](int n) {
        done = n;
        client_max = std::max(client_max, Timer::Instance()->pending());
      },
      [&] { server_max = std::max(server_max, Timer::Instance()->pending()); });
  EXPECT_EQ(done, 1000);
  EXPECT_LE(client_max, 2u);
  EXPECT_LE(server_max, 2u);
}

TEST(Net, TcpConnectionStateLivesOnRssCore) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 4, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::vector<std::size_t> accept_cores;
  std::vector<std::size_t> rx_cores;

  class CoreRecordingEcho final : public TcpHandler {
   public:
    explicit CoreRecordingEcho(std::vector<std::size_t>& rx_cores) : rx_cores_(rx_cores) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      rx_cores_.push_back(CurrentContext().machine_core);
      Pcb().Send(std::move(data));
    }

   private:
    std::vector<std::size_t>& rx_cores_;
  };

  class CountingClient final : public TcpHandler {
   public:
    explicit CountingClient(int& done) : done_(done) {}
    void Receive(std::unique_ptr<IOBuf>) override { ++done_; }

   private:
    int& done_;
  };

  server.Spawn(0, [&] {
    server.net->tcp().Listen(8005, [&](TcpPcb pcb) {
      accept_cores.push_back(CurrentContext().machine_core);
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<CoreRecordingEcho>(rx_cores)));
    });
  });
  constexpr int kConns = 8;
  int done = 0;
  client.Spawn(0, [&] {
    for (int i = 0; i < kConns; ++i) {
      client.net->tcp().Connect(*client.iface, kServerIp, 8005).Then([&](Future<TcpPcb> f) {
        TcpPcb pcb = f.Get();
        pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<CountingClient>(done)));
        pcb.Send(IOBuf::CopyBuffer("affinity"));
      });
    }
  });
  bed.world().Run();
  EXPECT_EQ(done, kConns);
  ASSERT_EQ(accept_cores.size(), rx_cores.size());
  // Every receive ran on the same core that accepted its connection (RSS affinity), and the
  // 8 connections actually spread over multiple server cores.
  for (std::size_t i = 0; i < accept_cores.size(); ++i) {
    EXPECT_EQ(accept_cores[i], rx_cores[i]);
  }
  std::set<std::size_t> distinct(accept_cores.begin(), accept_cores.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Net, AdaptivePollingEngagesUnderLoad) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  // Unvirtualized client (like the paper's load generator): no per-packet virtio kick, so it
  // can blast at wire rate and actually overwhelm the server's interrupt path.
  TestbedNode client = bed.AddNode("client", 1, kClientIp, sim::HypervisorModel::Native());
  std::uint64_t received = 0;
  server.Spawn(0, [&] {
    server.net->BindUdp(6000, [&received](Ipv4Addr, std::uint16_t, std::unique_ptr<IOBuf>) {
      ++received;
    });
  });
  // Blast datagrams so a burst lands behind one interrupt, engaging the polling mode.
  constexpr int kBurst = 400;
  client.Spawn(0, [&] {
    for (int i = 0; i < kBurst; ++i) {
      client.net->SendUdp(kServerIp, 6000, 6000, IOBuf::CopyBuffer("burst"));
    }
  });
  bed.world().Run();
  EXPECT_EQ(received, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(server.nic->frames_polled(), 0u) << "polling mode never engaged";
  // Far fewer interrupts than frames: the driver batched via polling.
  EXPECT_LT(server.nic->interrupts_raised(), static_cast<std::uint64_t>(kBurst) / 4);
}

}  // namespace
}  // namespace ebbrt
