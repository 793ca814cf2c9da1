// TCP for the EbbRT stack (§3.6).
//
// Deliberate departures from a general-purpose OS TCP, straight from the paper:
//
//   * NO stack-side buffering in either direction. Received in-order bytes are handed to the
//     application immediately, from the driver's event, on the connection's core. On the send
//     side the application must check SendWindowRemaining() before Send() — the stack never
//     queues application data waiting for window (out-of-window sends are rejected).
//   * NO Nagle. Send() puts segments on the wire immediately; aggregation is an application
//     decision ("This allows the application to decide whether or not to delay sending to
//     aggregate multiple sends into a single TCP segment"). That application-side aggregation
//     is a first-class mechanism here: Cork()/Uncork() batch explicitly, and SetAutoCork()
//     opts a connection into event-scoped batching — every Send() issued during one event
//     dispatch is merged into one chain and flushed once at the event boundary (TxBatcher +
//     the EventManager end-of-event hook), merging small writes into as few wire segments as
//     the send window allows. Corked bytes are bounded by the send window (Send still
//     refuses beyond it), so this is aggregation, not a kernel-style send buffer.
//   * The application controls the advertised receive window (SetReceiveWindow) — its own
//     admission control, not a kernel buffer size.
//   * Connection state lives on exactly one core (where the SYN landed / where the connector
//     arranged its flow hash to land). Lookups go through an RCU hash table; the data path
//     takes no locks and no atomics.
//
// Every connection consumer — application, uv layer, baseline socket shim — attaches through
// ONE abstraction: TcpHandler. The stack invokes its virtuals directly from the device event,
// so per-connection dispatch costs a vtable load instead of three heap-allocated
// std::function objects, and the datapath invariants (run-to-completion on the owner core,
// zero-copy views) are enforced in exactly one place.
//
// Reliability machinery kept for correctness (exercised by the packet-loss tests): go-back-N
// retransmission with exponential backoff, out-of-order segment parking, TIME_WAIT.
#ifndef EBBRT_SRC_NET_TCP_H_
#define EBBRT_SRC_NET_TCP_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/future/future.h"
#include "src/iobuf/iobuf.h"
#include "src/iobuf/iobuf_queue.h"
#include "src/net/net_types.h"
#include "src/platform/ring_queue.h"
#include "src/rcu/rcu_hash_table.h"

namespace ebbrt {

class NetworkManager;
class Interface;
class TcpManager;
class TcpPcb;
class TcpEntry;
class TcpHandler;
class TxBatcher;

inline constexpr std::size_t kTcpMss = 1460;
inline constexpr std::uint16_t kTcpDefaultWindow = 65535;

enum class TcpState : std::uint8_t {
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
  kClosed,
};

// Application handle to a connection. Methods must be called on the connection's core.
class TcpPcb {
 public:
  TcpPcb() = default;
  explicit TcpPcb(std::shared_ptr<TcpEntry> entry) : entry_(std::move(entry)) {}

  bool valid() const { return entry_ != nullptr; }
  std::size_t core() const;
  FourTuple tuple() const;
  TcpState state() const;

  // --- Connection consumer -----------------------------------------------------------------
  // Installs the connection's handler. Exactly one handler is attached at a time; installing
  // replaces any previous one. Three ownership flavors:
  //   * raw pointer     — caller manages the handler's lifetime (it must outlive the pcb);
  //   * unique_ptr      — the connection owns the handler and destroys it (deferred to its
  //                       own event) when the connection is removed;
  //   * shared_ptr      — the connection anchors a reference until removal (for handlers
  //                       whose lifetime is shared with application code, e.g. uv streams).
  void InstallHandler(TcpHandler* handler);
  void InstallHandler(std::unique_ptr<TcpHandler> handler);
  void InstallHandler(std::shared_ptr<TcpHandler> handler);

  // Application-controlled advertised window (§3.6: "an application can explicitly set the
  // window size to prevent further sends from the remote host").
  void SetReceiveWindow(std::uint16_t window);

  // Bytes the peer+our outstanding data currently allow us to send, net of any corked bytes
  // awaiting flush. The application must check this before Send (paper contract); Send
  // returns false when violated — whether corked or not, total buffered+in-flight data never
  // exceeds one send window.
  std::size_t SendWindowRemaining() const;
  // Unacknowledged bytes currently in flight (used by the baseline stack's Nagle check).
  std::size_t BytesInFlight() const;
  bool Send(std::unique_ptr<IOBuf> chain);

  // --- TX corking (the paper's application-level send aggregation, made a mechanism) -------
  // While corked, Send() appends to a per-connection chain instead of emitting segments;
  // Uncork() at nesting depth zero flushes the chain through the normal segmenting path, so
  // k small writes leave as ceil(bytes/MSS) segments instead of k. Nestable.
  void Cork();
  void Uncork();
  bool Corked() const;
  std::size_t CorkedBytes() const;
  // Event-scoped automatic corking: every Send() outside a manual cork is accumulated and
  // flushed exactly once when the current event dispatch ends (TxBatcher; the flush is also
  // resumed by ACK-driven window openings when a flush was window-limited).
  void SetAutoCork(bool enabled);

  void Close();
  // Unilateral teardown: emits RST, drops any corked (unflushed) data, removes the
  // connection immediately. The local handler is NOT called back.
  void Abort();

 private:
  std::shared_ptr<TcpEntry> entry_;
};

// The per-connection consumer interface — the unified zero-copy datapath's application edge.
// The stack calls these synchronously from the device event on the connection's owner core;
// implementations run to completion (no blocking, no migration). `Pcb()` is bound at install
// time, so a handler is a self-contained connection object: state, parsing, and the send
// side all hang off one vtable.
class TcpHandler {
 public:
  virtual ~TcpHandler() = default;

  // In-order payload, the moment it arrives (ownership transferred). The chain is the very
  // buffer the (simulated) DMA engine filled, headers already Advance()d past.
  virtual void Receive(std::unique_ptr<IOBuf> buf) = 0;
  // Peer closed its side (FIN at the in-order point).
  virtual void Close() {}
  // ACKs opened send window that was previously exhausted — resume application pacing.
  virtual void SendReady() {}
  // Connection torn down abnormally (RST, retransmission give-up). Defaults to Close().
  virtual void Abort() { Close(); }

  TcpPcb& Pcb() { return pcb_; }
  const TcpPcb& Pcb() const { return pcb_; }

 private:
  friend class TcpPcb;
  TcpPcb pcb_;
};

// Internal per-connection state. All fields are owned by `owner_core`; only that core touches
// them (the RSS steering invariant). Applications hold it through TcpPcb.
class TcpEntry {
 public:
  TcpEntry(TcpManager& manager, Interface& iface, FourTuple tuple, std::size_t owner_core);

  TcpManager& manager;
  Interface& iface;
  FourTuple tuple;
  std::size_t owner_core;
  TcpState state = TcpState::kClosed;

  // Send sequence space.
  std::uint32_t snd_una = 0;  // oldest unacknowledged
  std::uint32_t snd_nxt = 0;  // next to send
  std::uint32_t snd_wnd = kTcpDefaultWindow;  // peer's advertised window
  // Receive sequence space.
  std::uint32_t rcv_nxt = 0;
  std::uint16_t rcv_wnd = kTcpDefaultWindow;  // our advertisement (application-controlled)

  // The connection's consumer. `handler` is the dispatch pointer (hot path); the other two
  // fields carry whatever ownership the installer transferred (see TcpPcb::InstallHandler).
  TcpHandler* handler = nullptr;
  std::unique_ptr<TcpHandler> owned_handler;
  std::shared_ptr<void> handler_anchor;

  // Retransmission queue: unacked segments holding zero-copy views of application memory
  // (retransmit is the rare path; only it clones). One Send's segments share one chain,
  // owned by its LAST segment: segments are acked and popped in order, so the owner always
  // outlives the earlier segments' views.
  struct RtxSeg {
    std::uint32_t seq;
    std::uint32_t len;  // payload bytes (+1 virtual byte for SYN/FIN)
    std::uint8_t flags;
    std::unique_ptr<IOBuf> payload;  // views into the chain; cloned only on retransmit
    std::unique_ptr<IOBuf> owner;    // the application chain, on a send's last segment
  };
  RingQueue<RtxSeg> rtx_queue;
  // Lazy RTO: ACK progress only moves `rtx_deadline` (0 when nothing is outstanding). One
  // Timer entry is armed at a time (`rtx_timer`, firing at `rtx_timer_at`); when it fires
  // before the deadline it re-arms for the remainder.
  std::uint64_t rtx_deadline = 0;
  std::uint64_t rtx_timer = 0;  // Timer handle, 0 when unarmed
  std::uint64_t rtx_timer_at = 0;
  std::uint32_t rtx_backoff = 0;

  // Out-of-order segments parked until the gap fills (bounded).
  std::map<std::uint32_t, std::unique_ptr<IOBuf>> ooo;
  static constexpr std::size_t kMaxOoo = 64;

  bool pending_ack = false;   // a received segment needs acknowledging
  bool app_closed = false;
  bool fin_sent = false;
  bool removed = false;       // RemoveEntry already ran (guards re-entry on abort paths)
  std::uint64_t time_wait_timer = 0;

  // --- TX corking state (see TcpPcb::Cork/SetAutoCork) -------------------------------------
  IOBufQueue cork_queue;           // corked payload awaiting flush (bounded by the window)
  std::uint32_t cork_count = 0;    // manual Cork() nesting depth
  bool auto_cork = false;          // Send() corks automatically, flushed at event boundary
  bool batcher_enrolled = false;   // registered with the owner core's TxBatcher this event
  bool close_after_flush = false;  // app Close() with data corked: FIN follows the data

  Promise<void> connected;  // fulfilled for active opens
  bool connect_pending = false;
  std::function<void(TcpPcb)> on_established;  // passive opens: listener's accept callback
};

inline std::size_t TcpPcb::core() const { return entry_->owner_core; }
inline FourTuple TcpPcb::tuple() const { return entry_->tuple; }
inline TcpState TcpPcb::state() const { return entry_->state; }
inline std::size_t TcpPcb::BytesInFlight() const {
  return entry_->snd_nxt - entry_->snd_una;
}

class TcpManager {
 public:
  using AcceptFn = std::function<void(TcpPcb)>;

  explicit TcpManager(NetworkManager& manager);
  ~TcpManager();

  // Passive open: accept handler runs on the core where each connection's SYN lands.
  void Listen(std::uint16_t port, AcceptFn accept);
  void Unlisten(std::uint16_t port);

  // Active open from the current core: picks an ephemeral source port whose flow hash steers
  // the connection back to this core, then completes the handshake.
  Future<TcpPcb> Connect(Interface& iface, Ipv4Addr dst, std::uint16_t dst_port);

  // Segment input from the IP layer (on the RSS core).
  void HandleSegment(Interface& iface, const Ipv4Header& ip, std::unique_ptr<IOBuf> segment);

  std::size_t active_connections() const { return table_.size(); }

  // Fault injection: severs every connection whose remote endpoint is `peer`, exactly as if
  // an RST arrived on each — a final RST goes out, the handler's Abort() fires, pending
  // connects fail, state is removed. Each connection is severed on its owner core (spawned
  // there when needed). Must be called from a core of this machine. Returns the number of
  // connections targeted.
  std::size_t SeverPeer(Ipv4Addr peer);

  // internal (used by TcpPcb/TcpEntry/TxBatcher logic)
  void TransmitSegment(TcpEntry& entry, std::uint8_t flags, std::unique_ptr<IOBuf> payload,
                       std::uint32_t seq, bool queue_rtx);
  // Sets the RTO deadline (RTO·2^backoff from now) unless one is already set; a no-op with
  // nothing unacked.
  void ArmRtxTimer(TcpEntry& entry);
  void RtxTimeout(std::shared_ptr<TcpEntry> entry);
  void RemoveEntry(TcpEntry& entry);
  NetworkManager& network() { return network_; }
  // Segments and transmits `len` payload bytes (the pre-cork Send body). Caller has already
  // verified the window.
  void SendPayload(TcpEntry& entry, std::unique_ptr<IOBuf> chain, std::size_t len);
  // Flushes as much of the entry's corked chain as the send window allows (dropping it
  // instead when the connection is torn down), then completes a pending Close() once the
  // chain drains. Safe to call with an empty queue or a removed entry.
  void FlushCorked(TcpEntry& entry);
  // Registers an auto-cork entry with its owner core's TxBatcher for the event-boundary
  // flush. Must be called on the owner core.
  void EnrollAutoCork(const std::shared_ptr<TcpEntry>& entry);
  TxBatcher& batcher(std::size_t core);

 private:
  struct Listener {
    AcceptFn accept;
  };

  std::shared_ptr<TcpEntry>* FindEntry(const FourTuple& tuple) { return table_.Find(tuple); }
  void HandleSyn(Interface& iface, const Ipv4Header& ip, const TcpHeader& tcp);
  void ProcessSegment(std::shared_ptr<TcpEntry> entry, const TcpHeader& tcp,
                      std::unique_ptr<IOBuf> payload);
  void DeliverInOrder(TcpEntry& entry, std::unique_ptr<IOBuf> payload, std::uint8_t flags);
  void SendAckIfPending(TcpEntry& entry);
  void EnterTimeWait(std::shared_ptr<TcpEntry> entry);
  // Arms the entry's one RTO Timer entry to fire at `at`; its callback is RtxTimerFired.
  void StartRtxTimer(TcpEntry& entry, std::uint64_t at);
  void RtxTimerFired(std::shared_ptr<TcpEntry> entry);
  std::uint16_t PickEphemeralPort(Interface& iface, Ipv4Addr dst, std::uint16_t dst_port,
                                  std::size_t desired_core);

  // Completes the FIN half of an application Close() (factored out so a deferred close can
  // run once the corked chain drains).
  void FinishClose(TcpEntry& entry);

  NetworkManager& network_;
  RcuHashTable<FourTuple, std::shared_ptr<TcpEntry>, FourTupleHash> table_;
  RcuHashTable<std::uint16_t, std::shared_ptr<Listener>> listeners_;
  std::atomic<std::uint16_t> next_ephemeral_{33000};
  // One TX batcher per core (index = machine core); only the owner core touches its batcher.
  std::vector<std::unique_ptr<TxBatcher>> batchers_;

  friend class TcpPcb;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_NET_TCP_H_
