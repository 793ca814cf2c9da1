#include "src/net/network_manager.h"

#include "src/event/timer.h"
#include "src/net/tcp.h"

namespace ebbrt {

// --- Checksum ---------------------------------------------------------------------------------

void ChecksumAccumulator::Add(const void* data, std::size_t len) {
  auto* p = static_cast<const std::uint8_t*>(data);
  if (odd_ && len > 0) {
    // Previous chunk ended on an odd byte: this byte is the low half of that 16-bit word.
    sum_ += static_cast<std::uint32_t>(*p) << 8;
    ++p;
    --len;
    odd_ = false;
  }
  while (len > 1) {
    std::uint16_t word;
    std::memcpy(&word, p, 2);
    sum_ += word;
    p += 2;
    len -= 2;
  }
  if (len == 1) {
    sum_ += *p;
    odd_ = true;
  }
  while (sum_ >> 16) {
    sum_ = (sum_ & 0xffff) + (sum_ >> 16);
  }
}

void ChecksumAccumulator::AddChain(const IOBuf& chain) {
  for (const IOBuf* buf = &chain; buf != nullptr; buf = buf->Next()) {
    Add(buf->Data(), buf->Length());
  }
}

std::uint16_t ChecksumAccumulator::Finish() const {
  return static_cast<std::uint16_t>(~sum_ & 0xffff);
}

namespace {

// Pseudo-header contribution for UDP/TCP checksums.
void AddPseudoHeader(ChecksumAccumulator& acc, Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                     std::uint16_t l4_len) {
  struct {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t zero;
    std::uint8_t proto;
    std::uint16_t len;
  } __attribute__((packed)) pseudo;
  pseudo.src = HostToNet32(src.raw);
  pseudo.dst = HostToNet32(dst.raw);
  pseudo.zero = 0;
  pseudo.proto = proto;
  pseudo.len = HostToNet16(l4_len);
  acc.Add(&pseudo, sizeof(pseudo));
}

}  // namespace

namespace net_internal {

void FillIpv4(IOBuf& buf, Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
              std::size_t l4_header_len, std::size_t payload_len) {
  std::size_t headers = sizeof(Ipv4Header) + l4_header_len;
  auto& ip = buf.Get<Ipv4Header>();
  ip.version_ihl = 0x45;
  ip.dscp_ecn = 0;
  ip.total_length = HostToNet16(static_cast<std::uint16_t>(headers + payload_len));
  ip.identification = 0;
  ip.flags_fragment = HostToNet16(0x4000);  // DF
  ip.ttl = 64;
  ip.protocol = proto;
  ip.checksum = 0;
  ip.src = HostToNet32(src.raw);
  ip.dst = HostToNet32(dst.raw);
  ip.checksum = InternetChecksum(&ip, sizeof(Ipv4Header));
}

}  // namespace net_internal

// --- NetworkManager ----------------------------------------------------------------------------

NetworkManager& NetworkManager::For(Runtime& runtime) {
  auto* mgr = runtime.TryGetSubsystem<NetworkManager>(Subsystem::kNetworkManager);
  if (mgr == nullptr) {
    mgr = new NetworkManager(runtime);
    runtime.SetSubsystem(Subsystem::kNetworkManager, mgr);
    runtime.InstallRoot(kNetworkManagerId, mgr);
  }
  return *mgr;
}

NetworkManager::NetworkManager(Runtime& runtime)
    : runtime_(runtime),
      rcu_(RcuManagerRoot::For(runtime)),
      arp_cache_(rcu_, 6),
      udp_bindings_(rcu_, 6),
      tcp_(std::make_unique<TcpManager>(*this)) {}

NetworkManager::~NetworkManager() = default;

Interface& NetworkManager::AddInterface(sim::Nic& nic, Interface::IpConfig config) {
  interfaces_.push_back(std::make_unique<Interface>(*this, nic, config));
  return *interfaces_.back();
}

void NetworkManager::BindUdp(std::uint16_t port, UdpHandler handler) {
  udp_bindings_.InsertOrReplace(port, std::make_shared<UdpHandler>(std::move(handler)));
}

void NetworkManager::UnbindUdp(std::uint16_t port) { udp_bindings_.Erase(port); }

Future<void> NetworkManager::SendUdp(Ipv4Addr dst, std::uint16_t src_port,
                                     std::uint16_t dst_port, std::unique_ptr<IOBuf> data) {
  Interface& iface = interface();
  std::size_t payload_len = data->ComputeChainDataLength();
  auto packet =
      net_internal::BuildIpv4<sizeof(UdpHeader)>(iface.addr(), dst, kIpProtoUdp, payload_len);
  auto& udp = packet->Get<UdpHeader>(sizeof(Ipv4Header));
  std::uint16_t udp_len = static_cast<std::uint16_t>(sizeof(UdpHeader) + payload_len);
  udp.src_port = HostToNet16(src_port);
  udp.dst_port = HostToNet16(dst_port);
  udp.length = HostToNet16(udp_len);
  udp.checksum = 0;
  ChecksumAccumulator acc;
  AddPseudoHeader(acc, iface.addr(), dst, kIpProtoUdp, udp_len);
  acc.Add(&udp, sizeof(UdpHeader));
  acc.AddChain(*data);
  std::uint16_t csum = acc.Finish();
  udp.checksum = csum == 0 ? 0xffff : csum;
  packet->AppendChain(std::move(data));
  return iface.EthArpSend(kEthTypeIpv4, std::move(packet));
}

void NetworkManager::HandleUdp(Interface& iface, const Ipv4Header& ip,
                               std::unique_ptr<IOBuf> datagram) {
  if (datagram->Length() < sizeof(UdpHeader)) {
    stats_.udp_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto& udp = datagram->Get<UdpHeader>();
  std::uint16_t dst_port = NetToHost16(udp.dst_port);
  std::uint16_t src_port = NetToHost16(udp.src_port);
  std::uint16_t udp_len = NetToHost16(udp.length);
  if (udp_len < sizeof(UdpHeader) || udp_len > datagram->Length()) {
    stats_.udp_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  datagram->TrimEnd(datagram->Length() - udp_len);
  auto* handler = udp_bindings_.Find(dst_port);
  if (handler == nullptr) {
    stats_.udp_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats_.udp_rx.fetch_add(1, std::memory_order_relaxed);
  // Copy the shared handler inside the read-side section, then strip the header and deliver.
  std::shared_ptr<UdpHandler> fn = *handler;
  datagram->Advance(sizeof(UdpHeader));
  (*fn)(ip.SrcAddr(), src_port, std::move(datagram));
}

// --- Interface ----------------------------------------------------------------------------------

Interface::Interface(NetworkManager& manager, sim::Nic& nic, IpConfig config)
    : manager_(manager), nic_(nic), config_(config) {
  nic_.SetReceiveHandler([this](std::unique_ptr<IOBuf> frame) { Receive(std::move(frame)); });
}

Future<MacAddr> Interface::ArpFind(Ipv4Addr dest) {
  if (dest.IsBroadcast()) {
    return MakeReadyFuture<MacAddr>(MacAddr::Broadcast());
  }
  // Fast path: cache hit resolves synchronously (Figure 2's cached-translation case).
  MacAddr* cached = manager_.arp_cache().Find(dest.raw);
  if (cached != nullptr) {
    return MakeReadyFuture<MacAddr>(*cached);
  }
  Promise<MacAddr> promise;
  Future<MacAddr> future = promise.GetFuture();
  bool first;
  {
    std::lock_guard<Spinlock> lock(manager_.arp_mu());
    auto& waiters = manager_.arp_pending()[dest.raw];
    first = waiters.empty();
    waiters.push_back(std::move(promise));
  }
  if (first) {
    SendArpRequest(dest);
    ScheduleArpRetry(dest, 1);
  }
  return future;
}

void Interface::ScheduleArpRetry(Ipv4Addr target, int attempt) {
  constexpr std::uint64_t kArpRetryNs = 2'000'000;  // 2 ms
  constexpr int kMaxArpAttempts = 10;
  Timer::Instance()->Start(kArpRetryNs, [this, target, attempt] {
    std::vector<Promise<MacAddr>> waiters;
    bool still_pending = false;
    {
      std::lock_guard<Spinlock> lock(manager_.arp_mu());
      auto it = manager_.arp_pending().find(target.raw);
      if (it != manager_.arp_pending().end()) {
        if (attempt >= kMaxArpAttempts) {
          waiters = std::move(it->second);
          manager_.arp_pending().erase(it);
        } else {
          still_pending = true;
        }
      }
    }
    if (still_pending) {
      SendArpRequest(target);
      ScheduleArpRetry(target, attempt + 1);
      return;
    }
    for (auto& promise : waiters) {
      promise.SetException(
          std::make_exception_ptr(std::runtime_error("arp: no reply from " +
                                                     target.ToString())));
    }
  });
}

// The paper's Figure 2, modulo naming: route, resolve, fill the Ethernet header in reserved
// headroom, transmit. On ARP cache hits the lambda runs before EthArpSend returns, and the
// ready futures on both sides of it are inline: the send allocates nothing.
Future<void> Interface::EthArpSend(std::uint16_t proto, std::unique_ptr<IOBuf> packet) {
  const auto& ip_header = packet->Get<Ipv4Header>();
  Ipv4Addr local_dest = Route(ip_header.DstAddr());
  Future<MacAddr> future_macaddr = ArpFind(local_dest);
  sim::Nic* nic = &nic_;
  MacAddr src = mac();
  return future_macaddr.Then(
      [packet = std::move(packet), proto, nic, src](Future<MacAddr> f) mutable {
        packet->Retreat(sizeof(EthernetHeader));
        auto& eth = packet->Get<EthernetHeader>();
        eth.dst = f.Get();
        eth.src = src;
        eth.type = HostToNet16(proto);
        nic->Transmit(std::move(packet));
      });
}

void Interface::SendArpRequest(Ipv4Addr target) {
  auto frame = IOBuf::Create(sizeof(EthernetHeader) + sizeof(ArpPacket), /*zero=*/true);
  auto& eth = frame->Get<EthernetHeader>();
  eth.dst = MacAddr::Broadcast();
  eth.src = mac();
  eth.type = HostToNet16(kEthTypeArp);
  auto& arp = frame->Get<ArpPacket>(sizeof(EthernetHeader));
  arp.htype = HostToNet16(1);
  arp.ptype = HostToNet16(kEthTypeIpv4);
  arp.hlen = 6;
  arp.plen = 4;
  arp.oper = HostToNet16(kArpOpRequest);
  arp.sha = mac();
  arp.spa = HostToNet32(config_.addr.raw);
  arp.tha = MacAddr{};
  arp.tpa = HostToNet32(target.raw);
  nic_.Transmit(std::move(frame));
}

void Interface::Receive(std::unique_ptr<IOBuf> frame) {
  if (frame->Length() < sizeof(EthernetHeader)) {
    return;
  }
  const auto& eth = frame->Get<EthernetHeader>();
  switch (NetToHost16(eth.type)) {
    case kEthTypeArp:
      ReceiveArp(std::move(frame));
      break;
    case kEthTypeIpv4:
      ReceiveIpv4(std::move(frame));
      break;
    default:
      break;  // unknown ethertype: drop
  }
}

void Interface::ReceiveArp(std::unique_ptr<IOBuf> frame) {
  if (frame->Length() < sizeof(EthernetHeader) + sizeof(ArpPacket)) {
    return;
  }
  manager_.stats().arp_rx.fetch_add(1, std::memory_order_relaxed);
  const auto& arp = frame->Get<ArpPacket>(sizeof(EthernetHeader));
  Ipv4Addr sender{NetToHost32(arp.spa)};
  MacAddr sender_mac = arp.sha;
  // Learn the sender's mapping and resolve any waiters.
  manager_.arp_cache().InsertOrReplace(sender.raw, sender_mac);
  std::vector<Promise<MacAddr>> waiters;
  {
    std::lock_guard<Spinlock> lock(manager_.arp_mu());
    auto it = manager_.arp_pending().find(sender.raw);
    if (it != manager_.arp_pending().end()) {
      waiters = std::move(it->second);
      manager_.arp_pending().erase(it);
    }
  }
  for (auto& promise : waiters) {
    promise.SetValue(sender_mac);  // continuations (pending sends) run here, synchronously
  }
  if (NetToHost16(arp.oper) == kArpOpRequest &&
      Ipv4Addr{NetToHost32(arp.tpa)} == config_.addr) {
    auto reply = IOBuf::Create(sizeof(EthernetHeader) + sizeof(ArpPacket), /*zero=*/true);
    auto& eth = reply->Get<EthernetHeader>();
    eth.dst = sender_mac;
    eth.src = mac();
    eth.type = HostToNet16(kEthTypeArp);
    auto& out = reply->Get<ArpPacket>(sizeof(EthernetHeader));
    out.htype = HostToNet16(1);
    out.ptype = HostToNet16(kEthTypeIpv4);
    out.hlen = 6;
    out.plen = 4;
    out.oper = HostToNet16(kArpOpReply);
    out.sha = mac();
    out.spa = HostToNet32(config_.addr.raw);
    out.tha = sender_mac;
    out.tpa = arp.spa;
    nic_.Transmit(std::move(reply));
  }
}

void Interface::ReceiveIpv4(std::unique_ptr<IOBuf> frame) {
  if (frame->Length() < sizeof(EthernetHeader) + sizeof(Ipv4Header)) {
    return;
  }
  frame->Advance(sizeof(EthernetHeader));
  Ipv4Header ip = frame->Get<Ipv4Header>();  // copy: the view advances below
  std::size_t header_len = ip.HeaderLength();
  std::uint16_t total_len = NetToHost16(ip.total_length);
  if (header_len < sizeof(Ipv4Header) || total_len < header_len ||
      total_len > frame->Length()) {
    return;
  }
  if (InternetChecksum(frame->Data(), header_len) != 0) {
    manager_.stats().checksum_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!(ip.DstAddr() == config_.addr) && !ip.DstAddr().IsBroadcast()) {
    return;  // not for us
  }
  manager_.stats().ip_rx.fetch_add(1, std::memory_order_relaxed);
  frame->TrimEnd(frame->Length() - total_len);
  frame->Advance(header_len);
  switch (ip.protocol) {
    case kIpProtoUdp:
      manager_.HandleUdp(*this, ip, std::move(frame));
      break;
    case kIpProtoTcp:
      manager_.stats().tcp_rx.fetch_add(1, std::memory_order_relaxed);
      manager_.tcp().HandleSegment(*this, ip, std::move(frame));
      break;
    default:
      break;
  }
}

}  // namespace ebbrt
