// NetworkManager — the EbbRT network stack (§3.6): Ethernet/ARP/IPv4/UDP and the plumbing TCP
// (tcp.h) builds on.
//
// Properties carried over from the paper:
//   * Event-driven, zero-copy interfaces: the driver hands frames up synchronously; each layer
//     Advance()s past its header; applications receive the very IOBuf the device filled.
//   * No socket layer and no stack-side buffering: applications install handlers and manage
//     their own pacing.
//   * ArpFind returns Future<MacAddr>; on a cache hit the continuation runs synchronously
//     (Figure 2's EthArpSend is reproduced almost line for line in interface.cc).
//   * Per-flow core affinity via the NIC's symmetric RSS: all processing for a connection
//     happens on the core where its state lives — no synchronization on the data path.
#ifndef EBBRT_SRC_NET_NETWORK_MANAGER_H_
#define EBBRT_SRC_NET_NETWORK_MANAGER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/runtime.h"
#include "src/future/future.h"
#include "src/iobuf/iobuf.h"
#include "src/net/net_types.h"
#include "src/rcu/rcu.h"
#include "src/rcu/rcu_hash_table.h"
#include "src/sim/nic.h"

namespace ebbrt {

class NetworkManager;
class TcpManager;

// Incremental Internet checksum over IOBuf chains (handles odd-length element boundaries).
class ChecksumAccumulator {
 public:
  void Add(const void* data, std::size_t len);
  void AddChain(const IOBuf& chain);
  std::uint16_t Finish() const;

 private:
  std::uint32_t sum_ = 0;
  bool odd_ = false;
};

class Interface {
 public:
  struct IpConfig {
    Ipv4Addr addr;
    Ipv4Addr netmask = Ipv4Addr::Of(255, 255, 255, 0);
    Ipv4Addr gateway;
  };

  Interface(NetworkManager& manager, sim::Nic& nic, IpConfig config);

  Ipv4Addr addr() const { return config_.addr; }
  const IpConfig& config() const { return config_; }
  void set_config(IpConfig config) { config_ = config; }
  MacAddr mac() const { return nic_.mac(); }
  sim::Nic& nic() { return nic_; }

  // Figure 2: route, ARP-resolve, prepend the Ethernet header, transmit. `packet` must start
  // with a fully-formed IPv4 header and have >= sizeof(EthernetHeader) headroom.
  Future<void> EthArpSend(std::uint16_t proto, std::unique_ptr<IOBuf> packet);

  // ARP resolution with a future (synchronous continuation on cache hit).
  Future<MacAddr> ArpFind(Ipv4Addr dest);

  // Next hop selection: on-subnet destinations go direct, everything else to the gateway.
  Ipv4Addr Route(Ipv4Addr dst) const {
    if ((dst.raw & config_.netmask.raw) == (config_.addr.raw & config_.netmask.raw) ||
        dst.IsBroadcast()) {
      return dst;
    }
    return config_.gateway;
  }

  // Driver entry point: runs on the RSS-selected core with frame ownership.
  void Receive(std::unique_ptr<IOBuf> frame);

 private:
  void ReceiveArp(std::unique_ptr<IOBuf> frame);
  void ReceiveIpv4(std::unique_ptr<IOBuf> frame);
  void SendArpRequest(Ipv4Addr target);
  // ARP requests are retransmitted until answered (frames can be lost); after the retry
  // budget the waiting futures fail, which propagates to e.g. pending TCP connects.
  void ScheduleArpRetry(Ipv4Addr target, int attempt);

  NetworkManager& manager_;
  sim::Nic& nic_;
  IpConfig config_;
};

class NetworkManager {
 public:
  // One instance per machine, reachable from any of its cores.
  static NetworkManager& For(Runtime& runtime);
  static NetworkManager& Current() { return For(CurrentRuntime()); }

  explicit NetworkManager(Runtime& runtime);
  ~NetworkManager();

  Runtime& runtime() { return runtime_; }

  Interface& AddInterface(sim::Nic& nic, Interface::IpConfig config);
  Interface& interface() {
    Kassert(!interfaces_.empty(), "NetworkManager: no interface");
    return *interfaces_.front();
  }

  // --- UDP -----------------------------------------------------------------------------------
  // Handler runs on the RSS core for the flow with ownership of the (header-stripped) datagram.
  using UdpHandler =
      std::function<void(Ipv4Addr src, std::uint16_t src_port, std::unique_ptr<IOBuf>)>;
  void BindUdp(std::uint16_t port, UdpHandler handler);
  void UnbindUdp(std::uint16_t port);
  // Sends `data` (chain) as one datagram. No stack buffering: "an overwhelmed application may
  // have to drop datagrams" — and an oversized one is the application's bug.
  Future<void> SendUdp(Ipv4Addr dst, std::uint16_t src_port, std::uint16_t dst_port,
                       std::unique_ptr<IOBuf> data);

  // --- internal plumbing ----------------------------------------------------------------------
  RcuManagerRoot& rcu() { return rcu_; }
  TcpManager& tcp() { return *tcp_; }
  void HandleUdp(Interface& iface, const Ipv4Header& ip, std::unique_ptr<IOBuf> datagram);

  // ARP state shared by interfaces (one cache per machine).
  RcuHashTable<std::uint32_t, MacAddr>& arp_cache() { return arp_cache_; }
  Spinlock& arp_mu() { return arp_mu_; }
  std::unordered_map<std::uint32_t, std::vector<Promise<MacAddr>>>& arp_pending() {
    return arp_pending_;
  }

  // Stats for tests/benches.
  struct Stats {
    std::atomic<std::uint64_t> ip_rx{0};
    std::atomic<std::uint64_t> udp_rx{0};
    std::atomic<std::uint64_t> udp_dropped{0};
    std::atomic<std::uint64_t> tcp_rx{0};
    std::atomic<std::uint64_t> arp_rx{0};
    std::atomic<std::uint64_t> checksum_drops{0};

    // --- TX path (event-scoped send aggregation; see docs/ARCHITECTURE.md "TX path") ------
    std::atomic<std::uint64_t> tcp_tx_segments{0};       // every TCP segment put on the wire
    std::atomic<std::uint64_t> tcp_tx_data_segments{0};  // segments carrying payload
    std::atomic<std::uint64_t> tcp_tx_payload_bytes{0};
    // Send() calls merged into an already-started cork chain: the batching win. A pipelined
    // burst of N responses flushed as one chain counts N-1 here.
    std::atomic<std::uint64_t> sends_coalesced{0};
    std::atomic<std::uint64_t> cork_flushes{0};  // cork chains (or prefixes) put on the wire
    // Corked chains dropped because the connection was torn down before the event-boundary
    // flush (the flush-after-close hazard, handled by dropping — never sending — the chain).
    std::atomic<std::uint64_t> corked_drops{0};

    // --- RX path: IOBufQueue reassembly, reported by parser owners (zero-copy hit rate) ----
    std::atomic<std::uint64_t> rx_coalesce_ops{0};
    std::atomic<std::uint64_t> rx_coalesced_bytes{0};

    // Mean payload bytes per data-bearing segment — the per-op cost denominator benches
    // report. 0 when nothing was transmitted.
    double bytes_per_segment() const {
      std::uint64_t segs = tcp_tx_data_segments.load(std::memory_order_relaxed);
      if (segs == 0) {
        return 0.0;
      }
      return static_cast<double>(tcp_tx_payload_bytes.load(std::memory_order_relaxed)) /
             static_cast<double>(segs);
    }
  };
  Stats& stats() { return stats_; }

 private:
  Runtime& runtime_;
  RcuManagerRoot& rcu_;
  std::vector<std::unique_ptr<Interface>> interfaces_;

  RcuHashTable<std::uint32_t, MacAddr> arp_cache_;
  Spinlock arp_mu_;
  std::unordered_map<std::uint32_t, std::vector<Promise<MacAddr>>> arp_pending_;

  RcuHashTable<std::uint16_t, std::shared_ptr<UdpHandler>> udp_bindings_;
  std::unique_ptr<TcpManager> tcp_;

  Stats stats_;
};

namespace net_internal {
// Writes an IPv4 header at the front of `buf`'s view, which must already cover the IP + L4
// header bytes (with Ethernet headroom reserved behind it).
void FillIpv4(IOBuf& buf, Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
              std::size_t l4_header_len, std::size_t payload_len);

// Builds an IPv4 packet head buffer (Ethernet headroom reserved, IPv4 header filled, L4
// header space appended; payload chain appended by the caller). The L4 header length is a
// template parameter so the whole buffer size is compile-time known: allocation is the
// constant-folded AllocFor<> slab fast path (§3.4).
template <std::size_t L4HeaderLen>
std::unique_ptr<IOBuf> BuildIpv4(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                                 std::size_t payload_len) {
  constexpr std::size_t kCapacity = sizeof(EthernetHeader) + sizeof(Ipv4Header) + L4HeaderLen;
  auto buf = IOBuf::CreateReserveFor<kCapacity>(sizeof(EthernetHeader));
  buf->Append(sizeof(Ipv4Header) + L4HeaderLen);
  FillIpv4(*buf, src, dst, proto, L4HeaderLen, payload_len);
  return buf;
}
}  // namespace net_internal

}  // namespace ebbrt

#endif  // EBBRT_SRC_NET_NETWORK_MANAGER_H_
