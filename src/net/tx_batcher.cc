#include "src/net/tx_batcher.h"

#include <utility>

#include "src/event/event_manager.h"

namespace ebbrt {

void TxBatcher::Enroll(std::shared_ptr<TcpEntry> entry) {
  Kassert(CurrentContext().machine_core == entry->owner_core, "TxBatcher: wrong core");
  if (entry->batcher_enrolled) {
    return;
  }
  entry->batcher_enrolled = true;
  ++enrollments_;
  pending_.push_back(std::move(entry));
  if (!hook_queued_) {
    hook_queued_ = true;
    event::Local().QueueEndOfEvent([this] { Flush(); });
  }
}

void TxBatcher::Flush() {
  hook_queued_ = false;
  ++flushes_;
  // Swap out the batch: FlushCorked can run application-visible paths (a deferred Close's
  // FIN) that might Send again; those re-enroll into a fresh list and get their own hook
  // (drained in the same event-boundary pass by the EventManager).
  std::vector<std::shared_ptr<TcpEntry>> batch;
  batch.swap(pending_);
  for (std::shared_ptr<TcpEntry>& entry : batch) {
    entry->batcher_enrolled = false;
    tcp_.FlushCorked(*entry);
  }
  if (pending_.empty()) {
    // Nothing re-enrolled: hand the batch's capacity back so the next Enroll reuses it.
    batch.clear();
    pending_.swap(batch);
  }
}

}  // namespace ebbrt
