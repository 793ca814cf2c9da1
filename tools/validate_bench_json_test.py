#!/usr/bin/env python3
"""Tests for validate_bench_json.py, the one gate table of the bench artifacts.

The committed BENCH_*.json files must pass. Then, for every gate, one mutated copy
of the committed artifact breaks exactly the claim that gate guards, and the
validator must reject it with that gate's message: a gate dropped or loosened in
the table fails here.

Run: python3 tools/validate_bench_json_test.py   (any working directory)
"""
import copy
import json
import os
import sys
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)

import validate_bench_json as vbj  # noqa: E402

_COMMITTED = {}


def load(name):
    if name not in _COMMITTED:
        with open(os.path.join(ROOT, name)) as f:
            _COMMITTED[name] = json.load(f)
    return copy.deepcopy(_COMMITTED[name])


def find(points, **match):
    """The first point of a section whose fields equal `match`."""
    return next(p for p in points if all(p[k] == v for k, v in match.items()))


def setter(section, match, **fields):
    """A mutation that overwrites `fields` on the first matching point of `section`."""
    def mutate(data):
        find(data[section], **match).update(fields)
    return mutate


def fail_sharded_scaling(data):
    d32 = [p for p in data['sharded_kv'] if p['pipeline'] == 32]
    one = find(d32, shards=1)
    find(d32, shards=4)['ops_per_sec'] = 2.49 * one['ops_per_sec']


def batch64_like_batch1(field, section='multiget', shards=4):
    def mutate(data):
        points = data[section]
        find(points, shards=shards, batch=64)[field] = \
            find(points, shards=shards, batch=1)[field]
    return mutate


def fail_multiget_half(data):
    points = data['multiget_smoke']
    base = find(points, batch=1)['segments_per_op']
    find(points, batch=64)['segments_per_op'] = 0.51 * base


def fail_fan_in(data):
    fan_in = data['interconnect_smoke']['fan_in']
    fan_in.append({'senders': 9, 'ns_per_op': 2.01 * fan_in[0]['ns_per_op']})


def failover_phase(phase, **fields):
    def mutate(data):
        find(data['failover_smoke'][0]['phases'], phase=phase).update(fields)
    return mutate


def smoke_only(field, value):
    """Zeroes `field` everywhere, after dropping the smoke section that gates it alone."""
    def mutate(data):
        del data['memcached_1core_smoke']
        for points in data.values():
            for p in points:
                p[field] = value
    return mutate


def fail_linear_scaling(extra):
    def mutate(data):
        small, large = sorted(data['memcached_1core_smoke'], key=lambda p: p['requests'])
        large['heap_allocs'] = small['heap_allocs'] + \
            (large['requests'] - small['requests']) // 20 + extra
    return mutate


def slow_tracing(data):
    points = data['observability_smoke']
    off = find(points, level='off')
    find(points, level='tracing')['ops_per_sec'] = 0.969 * off['ops_per_sec']


def slow_item_plane(data):
    base = find(data['item_plane_baseline'], mix_get_pct=50, value_size=1024)
    find(data['item_plane'], mix_get_pct=50, value_size=1024)['ns_per_op'] = \
        base['ns_per_op']


IC = 'BENCH_interconnect.json'
KV = 'BENCH_sharded_kv.json'
FO = 'BENCH_failover.json'
MG = 'BENCH_multiget.json'
RPC = 'BENCH_dist_rpc.json'
TX = 'BENCH_tx_batching.json'
AP = 'BENCH_alloc_pool.json'
OBS = 'BENCH_observability.json'
IP = 'BENCH_item_plane.json'


def ic(**fields):
    def mutate(data):
        data['interconnect'].update(fields)
    return mutate


# (artifact, gate, mutation, fragment of the expected rejection message)
CASES = [
    (IC, 'spawn allocs', ic(allocs_per_op=0.05), 'spawns malloc'),
    (IC, 'wake elision', ic(xcore_wakeups=10**6, xcore_pushes=10**6), 'wake elision'),
    (IC, 'fan-in flat (smoke)', fail_fan_in, 'fan-in ns/op'),

    (KV, 'completed', setter('sharded_kv', {'shards': 2}, requests=0), 'did not complete'),
    (KV, 'pool engaged', setter('sharded_kv_smoke', {}, pool_hit_rate=0.0),
     'buffer pool silently disabled'),
    (KV, 'imbalance', setter('sharded_kv', {'shards': 4}, imbalance=0.26), 'imbalance'),
    (KV, 'allocs', setter('sharded_kv', {'shards': 1}, allocs_per_op=0.051),
     'sharded datapath mallocs'),
    (KV, 'corking', setter('sharded_kv_smoke', {}, segments_per_op=0.51), 'not corking'),
    (KV, 'control locks', setter('sharded_kv', {'shards': 2}, control_locks=1),
     'control locks'),
    (KV, 'scaling (full)', fail_sharded_scaling, '2.5x 1-shard'),

    (FO, 'completed', failover_phase('recovery', ops=0), 'did not complete'),
    (FO, 'fault errors', failover_phase('fault', error_rate=0.021), 'leaking availability'),
    (FO, 'recovery errors', failover_phase('recovery', error_rate=0.021),
     'leaking availability'),
    (FO, 'recovery ratio', setter('failover', {}, recovery_ratio=0.79),
     'recovery throughput'),
    (FO, 'failovers', setter('failover', {}, failovers=0), 'never engaged'),
    (FO, 'suspects', setter('failover', {}, suspects_marked=0), 'never engaged'),
    (FO, 'ring swap', setter('failover', {}, ring_swaps=0), 'never engaged'),
    (FO, 'pre-kill allocs', setter('failover', {}, pre_kill_allocs_per_op=0.051),
     'deadline bookkeeping mallocs'),
    (FO, 'pre-kill control locks', setter('failover_smoke', {}, pre_kill_control_locks=1),
     'pre-kill path'),

    (MG, 'completed', setter('multiget', {'batch': 8}, keys=0), 'did not complete'),
    (MG, 'pool engaged', setter('multiget', {'batch': 64}, pool_hit_rate=0.0),
     'buffer pool silently disabled'),
    (MG, 'hits', setter('multiget_smoke', {'batch': 1}, hits=127), 'keys missed'),
    (MG, 'allocs', setter('multiget', {'batch': 1}, allocs_per_op=0.051),
     'bulk datapath mallocs'),
    (MG, 'control locks', setter('multiget_smoke', {'batch': 64}, control_locks=1),
     'control locks'),
    (MG, 'batch-64 <= 0.5x batch-1 segments', fail_multiget_half, '0.5x batch-1'),
    (MG, 'batch-64 ns/key < batch-1 (full, 4 shards)', batch64_like_batch1('ns_per_key'),
     'not below batch-1'),
    (MG, 'batch-64 ns/key < batch-1 (full, 1 shard)',
     batch64_like_batch1('ns_per_key', shards=1), 'not below batch-1'),
    (MG, 'batch-64 segments/key < batch-1 (full)', batch64_like_batch1('segments_per_op'),
     'batch-1'),

    (RPC, 'completed', setter('dist_rpc', {'pipeline': 1}, requests=0), 'did not complete'),
    (RPC, 'pool engaged', setter('dist_rpc_smoke', {}, pool_hit_rate=0.0),
     'buffer pool silently disabled'),
    (RPC, 'corking', setter('dist_rpc', {'pipeline': 32}, segments_per_op=0.5),
     'not batching'),
    (RPC, 'allocs', setter('dist_rpc', {'pipeline': 8}, allocs_per_op=0.11),
     'dist RPC datapath mallocs'),

    (TX, 'completed', setter('webserver', {'pipeline': 8}, requests=0), 'did not complete'),
    (TX, 'smoke coalesces', setter('memcached_1core_smoke', {}, sends_coalesced=0),
     'memcached_1core_smoke: TX batching silently disabled'),
    (TX, 'coalesces somewhere', smoke_only('sends_coalesced', 0), 'everywhere'),

    (AP, 'completed', setter('memcached_4core', {'pipeline': 32}, requests=0),
     'did not complete'),
    (AP, 'smoke pool engaged', setter('memcached_1core_smoke', {'requests': 256},
                                      pool_hit_rate=0.0),
     'memcached_1core_smoke: buffer pool silently disabled'),
    (AP, 'pool engaged somewhere', smoke_only('pool_hit_rate', 0.0), 'everywhere'),
    (AP, 'allocs at depth >= 8', setter('memcached_1core', {'pipeline': 8},
                                        allocs_per_op=0.051),
     'steady-state datapath mallocs'),
    (AP, 'allocs do not scale (smoke)', fail_linear_scaling(1), 'scale with request count'),

    (OBS, 'completed', setter('observability', {'level': 'metrics'}, ops=0),
     'did not complete'),
    (OBS, 'control locks', setter('observability', {'level': 'off'}, control_locks=1),
     'control locks'),
    (OBS, 'allocs', setter('observability_smoke', {'level': 'tracing'},
                           allocs_per_op=0.051), 'telemetry plane mallocs'),
    (OBS, 'tracing overhead', slow_tracing, '97% of off'),
    (OBS, 'spans recorded', setter('observability', {'level': 'tracing'}, spans=0),
     'spans for'),
    (OBS, 'no spans below tracing', setter('observability', {'level': 'metrics'}, spans=1),
     'below kTracing'),

    (IP, 'completed', setter('item_plane_baseline', {}, ops=0), 'ran no ops'),
    (IP, 'smoke GET allocs', setter('item_plane_smoke', {}, get_heap_allocs_per_op=0.05),
     'item plane mallocs'),
    (IP, 'smoke SET allocs', setter('item_plane_smoke', {}, set_heap_allocs_per_op=0.05),
     'item plane mallocs'),
    (IP, 'smoke overall allocs', setter('item_plane_smoke', {}, heap_allocs_per_op=0.05),
     'item plane mallocs'),
    (IP, 'full-run SET allocs', setter('item_plane', {}, set_heap_allocs_per_op=0.0001),
     'item plane mallocs'),
    (IP, '50/50 beats baseline', slow_item_plane, 'did not improve'),
]


class ValidatorTest(unittest.TestCase):
    def test_committed_artifacts_pass(self):
        for name, validate in vbj.VALIDATORS.items():
            with self.subTest(artifact=name):
                validate(load(name))

    def test_each_gate_rejects_its_mutation(self):
        for name, gate, mutate, message in CASES:
            with self.subTest(artifact=name, gate=gate):
                data = load(name)
                mutate(data)
                with self.assertRaises(SystemExit) as raised:
                    vbj.VALIDATORS[name](data)
                self.assertIn(message, str(raised.exception.code))

    def test_gates_sit_at_their_bounds(self):
        # One step inside each boundary must still pass, so a tightened copy is caught
        # as surely as a loosened one.
        for name, mutate in [
                (AP, fail_linear_scaling(0)),
                (KV, setter('sharded_kv', {'shards': 4}, imbalance=0.25)),
                (FO, setter('failover', {}, recovery_ratio=0.8)),
                (RPC, setter('dist_rpc', {'pipeline': 8}, allocs_per_op=0.1)),
                (IP, setter('item_plane_smoke', {}, heap_allocs_per_op=0.0499))]:
            with self.subTest(artifact=name):
                data = load(name)
                mutate(data)
                vbj.VALIDATORS[name](data)

    def test_missing_column_fails_schema(self):
        data = load(KV)
        del data['sharded_kv'][0]['control_locks']
        with self.assertRaises(AssertionError):
            vbj.validate_sharded_kv(data)


if __name__ == '__main__':
    unittest.main()
