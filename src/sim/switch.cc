#include "src/sim/switch.h"

#include "src/sim/nic.h"

namespace ebbrt {
namespace sim {

std::size_t Switch::Attach(Nic* nic) {
  ports_.push_back(nic);
  tx_link_free_.push_back(0);
  return ports_.size() - 1;
}

void Switch::SetLinkFault(std::size_t port, const FaultPlan& plan) {
  Kassert(port < ports_.size(), "Switch: bad port");
  LinkFault fault;
  fault.plan = plan;
  fault.rng.seed(plan.seed);
  link_faults_[port] = std::move(fault);
}

void Switch::ClearLinkFault(std::size_t port) { link_faults_.erase(port); }

bool Switch::FaultEats(std::size_t port) {
  auto it = link_faults_.find(port);
  if (it == link_faults_.end()) {
    return false;
  }
  LinkFault& fault = it->second;
  if (fault.plan.blackhole) {
    ++frames_dropped_;
    ++faults_injected_;
    return true;
  }
  if (fault.plan.drop_rate > 0.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(fault.rng) < fault.plan.drop_rate) {
      ++frames_dropped_;
      ++faults_injected_;
      return true;
    }
  }
  return false;
}

std::uint64_t Switch::FaultDelay(std::size_t port) const {
  auto it = link_faults_.find(port);
  return it == link_faults_.end() ? 0 : it->second.plan.extra_delay_ns;
}

void Switch::Transmit(std::size_t from_port, const IOBuf& frame) {
  Kassert(from_port < ports_.size(), "Switch: bad port");
  if (loss_rate_ > 0.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(rng_) < loss_rate_) {
      ++frames_dropped_;
      return;
    }
  }
  if (FaultEats(from_port)) {
    return;  // egress fault on the sender's link
  }
  std::size_t frame_len = frame.ComputeChainDataLength();
  if (frame_len < sizeof(EthernetHeader)) {
    ++frames_dropped_;
    return;
  }
  // Learn the source MAC, resolve the destination port.
  EthernetHeader eth;
  frame.CopyOut(&eth, sizeof(eth));
  mac_table_[eth.src] = from_port;

  // Serialize on the sender's link: the link is busy until the frame's bits are on the wire.
  std::uint64_t now = world_.Now();
  std::uint64_t start = std::max(now, tx_link_free_[from_port]);
  std::uint64_t done = start + link_.SerializationNs(frame_len);
  tx_link_free_[from_port] = done;
  std::uint64_t arrival = done + link_.propagation_ns + FaultDelay(from_port);

  ++frames_forwarded_;
  if (!eth.dst.IsBroadcast()) {
    auto it = mac_table_.find(eth.dst);
    if (it != mac_table_.end()) {
      DeliverTo(it->second, frame, arrival);
      return;
    }
  }
  // Flood: broadcast or unknown destination.
  for (std::size_t port = 0; port < ports_.size(); ++port) {
    if (port != from_port) {
      DeliverTo(port, frame, arrival);
    }
  }
}

void Switch::DeliverTo(std::size_t port, const IOBuf& frame, std::uint64_t at) {
  // Ingress fault on the receiver's link, then killed-machine drop: a dead machine's NIC
  // neither fills posted descriptors nor raises interrupts, so the frame dies here without
  // consuming the posted ring (which must survive intact for revival).
  if (FaultEats(port)) {
    return;
  }
  Nic* nic = ports_[port];
  if (world_.MachineKilled(nic->runtime())) {
    ++frames_dropped_;
    ++killed_drops_;
    return;
  }
  at += FaultDelay(port);
  // Copy at the fabric boundary: bytes physically leave the sender's memory. The destination
  // NIC writes them into its next driver-posted RX buffer (recycled pool memory, flattened —
  // receivers see one contiguous DMA buffer, as a real NIC would present), falling back to a
  // fresh DeepClone when nothing is posted yet. RSS steering is computed once and shared by
  // the copy (posted ring) and the delivery.
  std::size_t queue = nic->QueueForFrame(frame);
  auto copy = nic->CopyForDelivery(frame, queue);
  // MoveFunction takes the move-only frame as a capture, inline in the calendar entry.
  world_.At(at, [nic, queue, copy = std::move(copy)]() mutable {
    nic->DeliverFrame(std::move(copy), queue);
  });
}

}  // namespace sim
}  // namespace ebbrt
