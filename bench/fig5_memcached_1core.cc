// Figure 5 — Memcached single-core performance: mean and 99th-percentile latency as a
// function of offered throughput, for EbbRT/KVM, Linux/KVM, Linux native, and OSv.
//
// Also emits the TX-batching depth sweep (pipeline {1, 8, 32}) as the "memcached_1core"
// section of BENCH_tx_batching.json and BENCH_alloc_pool.json.
//
// Modes:
//   (none)        full figure + depth sweep
//   --sweep-only  just the depth sweep
//   --smoke       depth-8 points at 256 and 512 requests into "memcached_1core_smoke"
//                 (tools/validate_bench_json.py validate_tx_batching, validate_alloc_pool)
#include <cstring>

#include "bench/memcached_common.h"

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool sweep_only = argc > 1 && std::strcmp(argv[1], "--sweep-only") == 0;
  if (smoke) {
    // Two request counts: steady-state heap allocs must not grow with the schedule.
    DepthRows p = RunDepthPoint(/*server_cores=*/1, /*depth=*/8, /*total_requests=*/256);
    DepthRows p2 = RunDepthPoint(/*server_cores=*/1, /*depth=*/8, /*total_requests=*/512);
    EmitRows("BENCH_tx_batching.json", "memcached_1core_smoke", {p.tx});
    EmitRows("BENCH_alloc_pool.json", "memcached_1core_smoke", {p.alloc, p2.alloc});
    return p.requests != 0 && p2.requests != 0 ? 0 : 1;
  }
  if (!sweep_only) {
    RunFigure("Figure 5", /*server_cores=*/1);
  }
  EmitTxBatchingSweep("memcached_1core", /*server_cores=*/1, {1, 8, 32},
                      /*total_requests=*/512);
  return 0;
}
