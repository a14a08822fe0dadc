"""Exactness of the on-demand KV deficit calendar.

Under on-demand allocation the scheduler's iteration boundary examines only
the *due* sequences — those finishing (re-)prefill, and decoding sequences
whose ``prompt + generated + 1`` reached their ``kv_check_tokens`` — instead
of asking :meth:`OnDemandPolicy.blocks_deficit` about the whole batch.  That
is only correct if every skipped sequence's next write provably needs no
block and touches no prefix-registered block.  This module checks the claim
two ways on seeded engine runs over prefix-group traffic whose prefix is not
block-aligned (prefix-only prompts share the partial tail block, so both
copy-on-write and sole-holder un-registration happen):

* **Audit** — every ``ensure_capacity`` call is wrapped, and each running
  sequence it skipped is checked with side-effect-free pool queries
  (``blocks_needed``, ``blocks_held``, ``cow_cost`` and the written block's
  prefix-index membership): it either emits no token in the coming
  iteration, or needs no growth and writes into a private, unregistered
  block.
* **Reference** — the same workload replayed through a scheduler that
  visits every running sequence at every boundary (the full-batch scan)
  produces an identical report.

The configurations cover the colocated engine, chunked prefill,
swap-to-host preemption, a 4-device colocated cluster and ``--disagg 1:3``.
CI runs the fast seeds on every push (``-m "not slow"``); the weekly
benchmark-smoke workflow runs the longer seed sweep (``-m slow``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    EngineConfig,
    OnDemandPolicy,
    RequestState,
    ServingEngine,
    ShardedBlockManager,
    poisson_workload,
)

BLOCK_SIZE = 8
#: Not block-aligned, so a prefix-only prompt maps a shared partial tail.
PREFIX_TOKENS = 20

#: name -> (EngineConfig overrides, KV blocks per device pool).
CONFIGS = {
    "colocated": ({}, 44),
    "chunked": ({"prefill_chunk": 8}, 44),
    "swap": ({"preempt_mode": "swap"}, 44),
    "devices4": ({"devices": 4}, 14),
    # Chunked, so a registrar's prefill-completing iteration is checked on
    # the prefill device before the handoff makes its blocks private.
    "disagg1:3": (
        {"devices": 4, "prefill_devices": 1, "decode_devices": 3, "prefill_chunk": 8},
        24,
    ),
}


def prefix_workload(seed, num_requests=40, prefix_only_share=0.3):
    """Two prefix groups; a share of the prompts is exactly the prefix."""
    requests = poisson_workload(
        num_requests, qps=60.0, seed=seed, mean_prompt_tokens=16,
        mean_new_tokens=40, shared_prefix_tokens=PREFIX_TOKENS, prefix_groups=2,
    )
    picks = np.random.default_rng([seed, 1]).random(num_requests).tolist()
    return [
        replace(r, prompt_tokens=r.prefix_tokens) if pick < prefix_only_share else r
        for r, pick in zip(requests, picks)
    ]


def device_pools(manager):
    """Per-device pools, indexed by ``Sequence.home_device``."""
    return manager.pools if isinstance(manager, ShardedBlockManager) else [manager]


def build_engine(config_name):
    overrides, blocks = CONFIGS[config_name]
    engine = ServingEngine(
        MiLoBackend(),
        "mixtral-8x7b",
        EngineConfig(
            block_size=BLOCK_SIZE, kv_policy="ondemand", max_batch_size=1000, **overrides
        ),
    )
    for pool in device_pools(engine.block_manager):
        pool.num_blocks = blocks
    return engine


class DeficitAudit:
    """Wraps a run's scheduler and audits the sequences each boundary skips."""

    def __init__(self, engine):
        self.boundaries = 0
        self.skipped_emitters = 0
        self.cow_copies = 0
        self.unregistrations = 0
        make_scheduler = engine.make_scheduler

        def audited_scheduler():
            scheduler = make_scheduler()
            self._attach(scheduler)
            return scheduler

        engine.make_scheduler = audited_scheduler

    def _attach(self, scheduler):
        visited = set()
        blocks_deficit = scheduler.allocation.blocks_deficit
        ensure_capacity = scheduler.ensure_capacity

        def recording_deficit(seq, prefill_chunk=None):
            visited.add(seq)
            return blocks_deficit(seq, prefill_chunk)

        def audited_capacity():
            visited.clear()
            preempted = ensure_capacity()
            self.boundaries += 1
            self._check_skipped(scheduler, visited)
            return preempted

        for pool in device_pools(scheduler.block_manager):
            self._count_writes(pool)
        scheduler.allocation.blocks_deficit = recording_deficit
        scheduler.ensure_capacity = audited_capacity

    def _count_writes(self, pool):
        """Tally CoW copies and sole-holder un-registrations as they happen."""
        ensure_writable = pool.ensure_writable

        def counting(seq_id, token_index):
            block = pool.block_table(seq_id)[token_index // pool.block_size]
            registered = block in pool._prefix_key
            copied = ensure_writable(seq_id, token_index)
            if copied:
                self.cow_copies += 1
            elif registered and block not in pool._prefix_key:
                self.unregistrations += 1
            return copied

        pool.ensure_writable = counting

    def _check_skipped(self, scheduler, visited):
        manager = scheduler.block_manager
        chunk = scheduler.config.prefill_chunk
        for seq in scheduler.running:
            if seq in visited or seq.state is not RequestState.RUNNING:
                continue
            if not seq.emits_token_this_iteration(chunk):
                continue  # mid-prefill: the admission allocation covers it
            self.skipped_emitters += 1
            seq_id = seq.request.request_id
            tokens_after = seq.request.prompt_tokens + seq.generated_tokens + 1
            write_pos = tokens_after - 1
            note = f"request {seq_id} skipped at boundary {self.boundaries}"
            assert manager.blocks_needed(tokens_after) <= manager.blocks_held(seq_id), note
            assert manager.cow_cost(seq_id, write_pos) == 0, note
            pool = device_pools(manager)[seq.home_device]
            block = pool.block_table(seq_id)[write_pos // pool.block_size]
            assert block not in pool._prefix_key, note


def full_scan_capacity(scheduler):
    """Reference ``ensure_capacity``: the deficit/preempt loop over every
    running sequence at every boundary, in precedence order."""
    preempted = []
    chunk = scheduler.config.prefill_chunk
    queue_key = scheduler.policy.queue_key
    for seq in sorted(scheduler.running, key=queue_key):
        if seq.state is not RequestState.RUNNING:
            continue
        deficit = scheduler.allocation.blocks_deficit(seq, chunk)
        home = seq.home_device
        while deficit > scheduler.block_manager.free_blocks_on(home):
            candidates = [
                s
                for s in scheduler.running
                if s is not seq and s.home_device == home and queue_key(s) > queue_key(seq)
            ]
            victim = scheduler.policy.select_victim(candidates, scheduler.block_manager)
            if victim is None:
                victim = seq
            scheduler._preempt(victim)
            preempted.append(victim)
            if victim is seq:
                deficit = 0
                break
        if deficit > 0:
            scheduler.allocation.grow(seq, deficit)
    return preempted


def run_full_scan(config_name, workload):
    engine = build_engine(config_name)
    make_scheduler = engine.make_scheduler

    def full_scan_scheduler():
        scheduler = make_scheduler()
        scheduler.ensure_capacity = lambda: full_scan_capacity(scheduler)
        return scheduler

    engine.make_scheduler = full_scan_scheduler
    return engine.run(workload).to_dict()


def check_calendar(config_name, seed):
    workload = prefix_workload(seed)
    engine = build_engine(config_name)
    audit = DeficitAudit(engine)
    report = engine.run(workload)
    out = report.to_dict()
    note = f"{config_name} seed {seed}"
    assert report.completed == len(workload), note
    assert report.preemptions > 0, note  # the pool actually ran dry
    assert audit.skipped_emitters > audit.boundaries, note  # the calendar skipped work
    assert out == run_full_scan(config_name, workload), note
    return audit


class TestDeficitCalendar:
    """Fast seeds (every push)."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_skipped_sequences_need_nothing(self, config_name, seed):
        audit = check_calendar(config_name, seed)
        # The prefix-region write paths were exercised.  The disaggregated
        # engine hands each sequence off (as private blocks) right after its
        # prefill-completing iteration, so only un-registration occurs there.
        assert audit.unregistrations > 0
        if not config_name.startswith("disagg"):
            assert audit.cow_copies > 0


class TestDeficitCallCount:
    """Machine-independent guard against a return to the full-batch scan."""

    def test_most_deficit_calls_find_a_deficit(self, monkeypatch):
        calls = positive = 0
        blocks_deficit = OnDemandPolicy.blocks_deficit

        def counting(policy, seq, prefill_chunk=None):
            nonlocal calls, positive
            deficit = blocks_deficit(policy, seq, prefill_chunk)
            calls += 1
            positive += deficit > 0
            return deficit

        monkeypatch.setattr(OnDemandPolicy, "blocks_deficit", counting)
        build_engine("colocated").run(prefix_workload(0))
        # Measured: 195 of 288 calls return a deficit (0.68).  Asking every
        # running sequence at every boundary made 1530 calls for the same
        # 195 deficits (0.13).
        assert positive == 195
        assert positive / calls >= 0.5


@pytest.mark.slow
class TestDeficitCalendarLong:
    """The longer seed sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(2, 12))
    def test_skipped_sequences_need_nothing(self, config_name, seed):
        check_calendar(config_name, seed)
