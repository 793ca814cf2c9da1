#!/usr/bin/env python3
"""Schema + regression-gate validation for the committed BENCH_*.json artifacts.

This is the one gate table for every bench: the binaries only write their
records (exiting nonzero only when their schedule did not complete), and CI runs
this script over the artifacts they regenerate. One validator per artifact, each
checking two things:

  * schema: every section carries the keys its bench promises, so a silently
    dropped column fails CI rather than producing an artifact nobody can plot;
  * gates: the claims the committed numbers are supposed to evidence (the
    schedule completed, zero steady-state mallocs, the buffer pool engaged, zero
    control locks, corking engaged, sharding scales, failover bounded,
    telemetry-plane overhead <= 3%, ...) hold for the numbers actually written.

Gates scoped to a run mode name their section: `<name>_smoke` is the CI point
set, the bare `<name>` the committed full run.

Usage: validate_bench_json.py [file ...]     (default: every known artifact
present in the current directory; a known artifact that is MISSING is an error
only when named explicitly).
"""
import json
import os
import sys

# Shared latency-quantile columns (bench_json.h LatencyCols): every record that reports
# latency from an obs::Histogram carries exactly these.
HIST_KEYS = ('samples', 'mean_ns', 'p50_ns', 'p99_ns', 'p999_ns')


def require(point, keys, where):
    for key in keys:
        assert key in point, f'{where}: missing {key}'


def points_of(section, points, keys):
    """Schema-checks a list section and yields its points."""
    assert isinstance(points, list) and points, f'{section}: empty section'
    for p in points:
        require(p, keys, section)
        yield p


def completed(section, p, count_key):
    if p[count_key] <= 0:
        sys.exit(f'{section}: schedule did not complete ({count_key} == 0)')


def pool_engaged(section, p):
    if p['pool_hit_rate'] <= 0:
        sys.exit(f'{section}: buffer pool silently disabled (pool_hit_rate == 0)')


def validate_interconnect(data):
    required = ('virtual_call_ns', 'mesh_uncontended_ns', 'xcore_spawn_ns',
                'allocs_per_op', 'xcore_pushes', 'xcore_wakeups', 'xcore_batched',
                'fan_in')
    for section, p in data.items():
        assert isinstance(p, dict), f'{section}: section must be an object'
        require(p, required, section)
        assert isinstance(p['fan_in'], list) and p['fan_in'], f'{section}: empty fan_in'
        for point in p['fan_in']:
            require(point, ('senders', 'ns_per_op'), f'{section}: fan_in point')
        if p['allocs_per_op'] >= 0.05:
            sys.exit(f'{section}: steady-state spawns malloc '
                     f'(allocs_per_op {p["allocs_per_op"]})')
        if p['xcore_pushes'] > 0 and p['xcore_wakeups'] > p['xcore_pushes'] // 2:
            sys.exit(f'{section}: wake elision broken — {p["xcore_wakeups"]} wakeups '
                     f'for {p["xcore_pushes"]} pushes')
        # The drain detaches each batch with one exchange, so its per-message cost stays
        # flat as senders pile up (smoke run: measured on the CI host).
        first, last = p['fan_in'][0], p['fan_in'][-1]
        if section.endswith('_smoke') and last['ns_per_op'] > 2 * first['ns_per_op']:
            sys.exit(f'{section}: fan-in ns/op {last["ns_per_op"]} at {last["senders"]} '
                     f'senders > 2x single-sender {first["ns_per_op"]}')


def validate_sharded_kv(data):
    required = ('shards', 'pipeline', 'requests', 'ops_per_sec', 'tx_data_segments',
                'segments_per_op', 'heap_allocs', 'allocs_per_op', 'pool_hit_rate',
                'shard_ops', 'imbalance', 'control_locks')
    for section, points in data.items():
        for p in points_of(section, points, required):
            completed(section, p, 'requests')
            pool_engaged(section, p)
            assert len(p['shard_ops']) == p['shards'], f'{section}: shard_ops shape'
            if p['shards'] >= 4 and p['imbalance'] > 0.25:
                sys.exit(f'{section}: ring imbalance {p["imbalance"]} > 0.25 '
                         f'at {p["shards"]} shards')
            if p['allocs_per_op'] > 0.05:
                sys.exit(f'{section}: sharded datapath mallocs '
                         f'(allocs_per_op {p["allocs_per_op"]})')
            if p['pipeline'] >= 32 and p['segments_per_op'] > 0.5:
                sys.exit(f'{section}: fanned-out rounds not corking '
                         f'(segments_per_op {p["segments_per_op"]})')
            if p['control_locks'] != 0:
                sys.exit(f'{section}: {p["control_locks"]} control locks on the '
                         f'steady-state path')
    # The scaling acceptance (full run): sharding must buy parallel service capacity.
    if 'sharded_kv' in data:
        d32 = {p['shards']: p['ops_per_sec'] for p in data['sharded_kv']
               if p['pipeline'] == 32}
        one, four = d32.get(1, 0), d32.get(4, 0)
        if one <= 0 or four < 2.5 * one:
            sys.exit(f'sharded_kv: 4-shard ops/s {four} < 2.5x 1-shard {one} at depth 32')


def validate_failover(data):
    point_keys = ('phases', 't_kill_ns', 't_revive_ns', 'recovery_ns',
                  'recovery_ratio', 'failovers', 'suspects_marked', 'ring_swaps',
                  'write_skips', 'pre_kill_allocs_per_op', 'pre_kill_control_locks')
    phase_keys = ('phase', 'ops', 'errors', 'error_rate', 'ops_per_sec',
                  'virtual_ns') + HIST_KEYS
    for section, points in data.items():
        for p in points_of(section, points, point_keys):
            names = [ph['phase'] for ph in p['phases']]
            assert names == ['pre_kill', 'fault', 'recovery'], \
                f'{section}: phase list {names}'
            for ph in p['phases']:
                require(ph, phase_keys, f'{section}: phase {ph.get("phase")}')
                completed(f'{section}: phase {ph["phase"]}', ph, 'ops')
                if ph['phase'] != 'pre_kill' and ph['error_rate'] > 0.02:
                    sys.exit(f'{section}: {ph["phase"]} error rate {ph["error_rate"]} '
                             f'> 0.02 — failover is leaking availability')
            if p['recovery_ratio'] < 0.8:
                sys.exit(f'{section}: recovery throughput only '
                         f'{p["recovery_ratio"]}x pre-kill (< 0.8x)')
            if p['failovers'] < 1 or p['suspects_marked'] < 1 or p['ring_swaps'] < 1:
                sys.exit(f'{section}: failover machinery never engaged')
            if p['pre_kill_allocs_per_op'] > 0.05:
                sys.exit(f'{section}: deadline bookkeeping mallocs on the steady path '
                         f'(allocs_per_op {p["pre_kill_allocs_per_op"]})')
            if p['pre_kill_control_locks'] != 0:
                sys.exit(f'{section}: {p["pre_kill_control_locks"]} control locks on '
                         f'the pre-kill path')


def validate_multiget(data):
    required = ('shards', 'batch', 'keys', 'ops_per_sec', 'ns_per_key',
                'tx_data_segments', 'segments_per_op', 'heap_allocs',
                'allocs_per_op', 'pool_hit_rate', 'hits', 'control_locks',
                'virtual_ns')
    for section, points in data.items():
        base = {}  # shards -> the batch-1 point
        for p in points_of(section, points, required):
            completed(section, p, 'keys')
            pool_engaged(section, p)
            if p['hits'] != p['keys']:
                sys.exit(f'{section}: {p["keys"] - p["hits"]} preloaded keys missed')
            if p['allocs_per_op'] > 0.05:
                sys.exit(f'{section}: bulk datapath mallocs '
                         f'(allocs_per_op {p["allocs_per_op"]})')
            if p['control_locks'] != 0:
                sys.exit(f'{section}: {p["control_locks"]} control locks on the '
                         f'steady-state path')
            if p['batch'] == 1:
                base[p['shards']] = p
        for p in points:
            if p['batch'] < 64 or p['shards'] not in base:
                continue
            b1 = base[p['shards']]
            where = f'{section}: batch-{p["batch"]} at {p["shards"]} shard(s)'
            if p['segments_per_op'] > 0.5 * b1['segments_per_op']:
                sys.exit(f'{where}: segments/key {p["segments_per_op"]} > 0.5x batch-1 '
                         f'{b1["segments_per_op"]}')
            # The headline acceptance (full run): batching must cut BOTH per-key wire
            # cost and per-key latency below the batch-1 baseline.
            if section == 'multiget' and (p['segments_per_op'] >= b1['segments_per_op'] or
                                          p['ns_per_key'] >= b1['ns_per_key']):
                sys.exit(f'{where}: segments/key {p["segments_per_op"]} or ns/key '
                         f'{p["ns_per_key"]} not below batch-1 ({b1["segments_per_op"]}, '
                         f'{b1["ns_per_key"]})')


def validate_dist_rpc(data):
    required = ('pipeline', 'requests', 'rpcs_per_sec', 'tx_data_segments',
                'segments_per_op', 'heap_allocs', 'allocs_per_op', 'pool_hit_rate')
    for section, points in data.items():
        for p in points_of(section, points, required):
            completed(section, p, 'requests')
            pool_engaged(section, p)
            if p['pipeline'] >= 32 and p['segments_per_op'] >= 0.5:
                sys.exit(f'{section}: pipelined RPCs not batching '
                         f'(segments_per_op {p["segments_per_op"]})')
            if p['allocs_per_op'] > 0.1:
                sys.exit(f'{section}: dist RPC datapath mallocs '
                         f'(allocs_per_op {p["allocs_per_op"]})')


def validate_tx_batching(data):
    required = ('pipeline', 'requests', 'tx_data_segments', 'sends_coalesced',
                'bytes_per_segment', 'segments_per_op')
    total_coalesced = 0
    for section, points in data.items():
        for p in points_of(section, points, required):
            completed(section, p, 'requests')
            total_coalesced += p['sends_coalesced']
            # The smoke point is pipelined (depth 8), so corking must engage there. Not
            # every point: a depth-1 webserver round has nothing to coalesce.
            if section == 'memcached_1core_smoke' and p['sends_coalesced'] == 0:
                sys.exit(f'{section}: TX batching silently disabled (sends_coalesced == 0)')
    if total_coalesced == 0:
        sys.exit('TX batching silently disabled: sends_coalesced == 0 everywhere')


def validate_alloc_pool(data):
    required = ('pipeline', 'requests', 'iobuf_allocs', 'heap_allocs',
                'pool_hits', 'pool_misses', 'allocs_per_op', 'pool_hit_rate')
    worst_allocs = 0.0
    best_hit_rate = 0.0
    for section, points in data.items():
        for p in points_of(section, points, required):
            completed(section, p, 'requests')
            if p['pipeline'] >= 8:
                worst_allocs = max(worst_allocs, p['allocs_per_op'])
            best_hit_rate = max(best_hit_rate, p['pool_hit_rate'])
            if section == 'memcached_1core_smoke':
                pool_engaged(section, p)
    if best_hit_rate == 0.0:
        sys.exit('buffer pool silently disabled: pool_hit_rate == 0 everywhere')
    if worst_allocs > 0.05:
        sys.exit(f'steady-state datapath mallocs: allocs_per_op {worst_allocs}')
    # Linear-scaling check (smoke): doubling the schedule must not add per-request heap
    # allocs — at most one per 20 extra requests.
    smoke = sorted(data.get('memcached_1core_smoke', []), key=lambda p: p['requests'])
    if len(smoke) >= 2:
        small, large = smoke[0], smoke[-1]
        budget = small['heap_allocs'] + (large['requests'] - small['requests']) // 20
        if large['heap_allocs'] > budget:
            sys.exit(f'memcached_1core_smoke: heap allocs scale with request count '
                     f'({small["heap_allocs"]} -> {large["heap_allocs"]})')


def validate_observability(data):
    required = ('level', 'ops', 'ops_per_sec', 'heap_allocs', 'allocs_per_op',
                'control_locks', 'spans', 'virtual_ns') + HIST_KEYS
    for section, points in data.items():
        by_level = {}
        for p in points_of(section, points, required):
            by_level[p['level']] = p
            completed(f'{section}: level {p["level"]}', p, 'ops')
            if p['control_locks'] != 0:
                sys.exit(f'{section}: {p["control_locks"]} control locks at level '
                         f'{p["level"]}')
            if p['allocs_per_op'] > 0.05:
                sys.exit(f'{section}: telemetry plane mallocs at level {p["level"]} '
                         f'(allocs_per_op {p["allocs_per_op"]})')
        assert set(by_level) == {'off', 'metrics', 'tracing'}, \
            f'{section}: levels {sorted(by_level)}'
        off, tracing = by_level['off'], by_level['tracing']
        # The headline gate: full tracing within 3% of the dark baseline.
        if tracing['ops_per_sec'] < 0.97 * off['ops_per_sec']:
            sys.exit(f'{section}: tracing ops/s {tracing["ops_per_sec"]} < 97% of '
                     f'off {off["ops_per_sec"]}')
        if tracing['spans'] < tracing['ops']:
            sys.exit(f'{section}: only {tracing["spans"]} spans for '
                     f'{tracing["ops"]} traced ops')
        if off['spans'] != 0 or by_level['metrics']['spans'] != 0:
            sys.exit(f'{section}: spans recorded below kTracing')


def validate_item_plane(data):
    required = ('mix_get_pct', 'value_size', 'ops', 'gets', 'sets', 'ns_per_op',
                'get_heap_allocs_per_op', 'set_heap_allocs_per_op',
                'heap_allocs_per_op') + HIST_KEYS
    for section, points in data.items():
        for p in points_of(section, points, required):
            if p['ops'] == 0:
                sys.exit(f'{section}: mix {p["mix_get_pct"]} value {p["value_size"]} '
                         f'ran no ops')
    # The tentpole gates apply to the CURRENT implementation's sections, not the
    # committed pre-refactor baseline (schema-checked above, exempt below).
    for section, points in data.items():
        if section.endswith('_baseline'):
            continue
        for p in points:
            where = f'{section}: mix {p["mix_get_pct"]} value {p["value_size"]}'
            # Smoke runs (CI, reduced op count) must stay below 0.05 allocs/op on GET,
            # SET and overall; the committed full run must measure exactly zero on GET
            # and SET — the item plane's whole claim.
            if section.endswith('_smoke'):
                exceeded = max(p['get_heap_allocs_per_op'], p['set_heap_allocs_per_op'],
                               p['heap_allocs_per_op']) >= 0.05
            else:
                exceeded = max(p['get_heap_allocs_per_op'],
                               p['set_heap_allocs_per_op']) > 0.0
            if exceeded:
                sys.exit(f'{where}: item plane mallocs in steady state '
                         f'(get {p["get_heap_allocs_per_op"]} '
                         f'set {p["set_heap_allocs_per_op"]} '
                         f'overall {p["heap_allocs_per_op"]})')
    # Perf gate: committed current 50/50 ns/op must beat the committed baseline at the
    # same value size (the mix where the refactor's SET-side win shows).
    current = data.get('item_plane')
    baseline = data.get('item_plane_baseline')
    if current and baseline:
        base_5050 = {p['value_size']: p['ns_per_op'] for p in baseline
                     if p['mix_get_pct'] == 50}
        for p in current:
            if p['mix_get_pct'] != 50 or p['value_size'] not in base_5050:
                continue
            if p['ns_per_op'] >= base_5050[p['value_size']]:
                sys.exit(f'item_plane: 50/50 ns/op {p["ns_per_op"]} did not improve '
                         f'on baseline {base_5050[p["value_size"]]} at value size '
                         f'{p["value_size"]}')


VALIDATORS = {
    'BENCH_interconnect.json': validate_interconnect,
    'BENCH_item_plane.json': validate_item_plane,
    'BENCH_sharded_kv.json': validate_sharded_kv,
    'BENCH_failover.json': validate_failover,
    'BENCH_multiget.json': validate_multiget,
    'BENCH_dist_rpc.json': validate_dist_rpc,
    'BENCH_tx_batching.json': validate_tx_batching,
    'BENCH_alloc_pool.json': validate_alloc_pool,
    'BENCH_observability.json': validate_observability,
}


def main(argv):
    paths = argv[1:] or [name for name in VALIDATORS if os.path.exists(name)]
    if not paths:
        sys.exit('no BENCH_*.json artifacts found (run from the repo root)')
    for path in paths:
        name = os.path.basename(path)
        if name not in VALIDATORS:
            sys.exit(f'{path}: no validator for this artifact')
        with open(path) as f:
            data = json.load(f)
        assert isinstance(data, dict) and data, \
            f'{name}: top level must be a non-empty object'
        VALIDATORS[name](data)
        print(f'OK: {name} ({len(data)} section(s))')


if __name__ == '__main__':
    main(sys.argv)
