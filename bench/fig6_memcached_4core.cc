// Figure 6 — Memcached multicore (4 server cores) performance. OSv is omitted from the
// paper's multicore figure (its virtio driver lacks multiqueue and performance degrades);
// our OSv model runs single-queue, so including it shows that same degradation.
//
// Also emits the TX-batching depth sweep as the "memcached_4core" section of
// BENCH_tx_batching.json and BENCH_alloc_pool.json (--sweep-only: just the sweep).
#include <cstring>

#include "bench/memcached_common.h"

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool sweep_only = argc > 1 && std::strcmp(argv[1], "--sweep-only") == 0;
  if (!sweep_only) {
    RunFigure("Figure 6", /*server_cores=*/4);
  }
  EmitTxBatchingSweep("memcached_4core", /*server_cores=*/4, {1, 8, 32},
                      /*total_requests=*/512);
  return 0;
}
