"""The general loop's batch bookkeeping against a per-boundary recount.

``ServingEngine._run_general`` does not walk the whole batch per iteration:
it keeps the prefilling sequences in a list and the decoding ones as a count
plus a per-device home split, updated at admission, preemption, prefill
completion, finish, handoff and rebalance.  This module checks that
bookkeeping on seeded runs:

* **Oracle** — the engine's one per-iteration cost entry point is wrapped, and
  the token count and home split each receives must equal
  ``scheduler.batch_tokens()`` and a per-device recount over ``running`` at
  that boundary; every iteration is checked exactly once.  After the run,
  every finished request has produced exactly ``max_new_tokens`` tokens.
* **Count guard** — ``Sequence.advance`` is called once per (iteration,
  prefilling sequence) pair, not once per running sequence.

The layouts cover ondemand colocated, chunked prefill, swap preemption,
4 devices, 4 devices with ``overlap``, ``--disagg 1:3`` ondemand + swap,
tracer and metrics attached, and a custom scheduling policy on reservation
allocation.  CI runs the fast seeds on every push (``-m "not slow"``); the
weekly benchmark-smoke workflow runs the longer seed sweep (``-m slow``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    EngineConfig,
    MetricsRegistry,
    RequestState,
    SchedulingPolicy,
    Sequence,
    ServingEngine,
    ShardedBlockManager,
    Tracer,
    poisson_workload,
)

BLOCK_SIZE = 8
NUM_REQUESTS = 48

DISAGG = {"devices": 4, "prefill_devices": 1, "decode_devices": 3}

#: name -> (EngineConfig overrides, KV blocks per device pool).
LAYOUTS = {
    "ondemand": ({"kv_policy": "ondemand"}, 60),
    "chunked": ({"kv_policy": "ondemand", "prefill_chunk": 16}, 60),
    "swap": ({"kv_policy": "ondemand", "preempt_mode": "swap"}, 60),
    "devices4": ({"kv_policy": "ondemand", "devices": 4}, 20),
    "devices4_overlap": ({"kv_policy": "ondemand", "devices": 4, "overlap": True}, 20),
    "disagg1:3": ({"kv_policy": "ondemand", "preempt_mode": "swap", **DISAGG}, 30),
    "telemetry": ({"kv_policy": "ondemand", "prefill_chunk": 16}, 60),
    "custom_policy": ({"kv_policy": "reserve", "devices": 2}, 80),
}


class ShortestPromptFirst(SchedulingPolicy):
    """A custom discipline: it keeps a reservation run on the general loop."""

    name = "shortest-prompt-first"

    def queue_key(self, seq):
        return (seq.request.prompt_tokens, seq.enqueue_index)


def workload(seed, num_requests=NUM_REQUESTS):
    """Prefix-group traffic with some single-token requests mixed in."""
    requests = poisson_workload(
        num_requests, qps=50.0, seed=seed, mean_prompt_tokens=24,
        mean_new_tokens=48, shared_prefix_tokens=20, prefix_groups=2,
    )
    picks = np.random.default_rng([seed, 2]).random(num_requests).tolist()
    return [
        replace(r, max_new_tokens=1) if pick < 0.1 else r
        for r, pick in zip(requests, picks)
    ]


def device_pools(manager):
    return manager.pools if isinstance(manager, ShardedBlockManager) else [manager]


class BatchOracle:
    """Checks every cost call's batch against a recount over ``running``."""

    def __init__(self, engine, policy=None):
        self.iterations = 0
        self.prefill_pairs = 0
        self.batch_sum = 0
        self.scheduler = None
        make_scheduler = engine.make_scheduler

        def watched_scheduler():
            scheduler = make_scheduler()
            if policy is not None:
                scheduler.policy = policy
            self.scheduler = scheduler
            return scheduler

        engine.make_scheduler = watched_scheduler
        engine._iteration_cost = self._checked(engine._iteration_cost)

    def _checked(self, cost):
        def checked(tokens, home_key):
            scheduler = self.scheduler
            running = scheduler.running
            chunk = scheduler.config.prefill_chunk
            note = f"iteration {self.iterations}"
            assert all(seq.state is RequestState.RUNNING for seq in running), note
            assert tokens == scheduler.batch_tokens(), note
            if home_key is not None:
                recount = [0] * len(home_key)
                for seq in running:
                    recount[seq.home_device] += seq.tokens_this_iteration(chunk)
                assert home_key == tuple(recount), note
            self.iterations += 1
            self.prefill_pairs += sum(1 for seq in running if not seq.prefill_done)
            self.batch_sum += len(running)
            return cost(tokens, home_key)

        return checked


def build_engine(layout):
    overrides, blocks = LAYOUTS[layout]
    engine = ServingEngine(
        MiLoBackend(),
        "mixtral-8x7b",
        EngineConfig(block_size=BLOCK_SIZE, max_batch_size=1000, **overrides),
    )
    for pool in device_pools(engine.block_manager):
        pool.num_blocks = blocks
    if layout == "telemetry":
        engine.enable_telemetry(Tracer(), MetricsRegistry(interval=0.05))
    return engine


def check_layout(layout, seed):
    engine = build_engine(layout)
    policy = ShortestPromptFirst() if layout == "custom_policy" else None
    oracle = BatchOracle(engine, policy)
    requests = workload(seed)
    report = engine.run(requests)
    note = f"{layout} seed {seed}"
    assert report.completed == len(requests), note
    assert oracle.iterations == report.iterations, note  # the general loop ran
    budgets = {r.request_id: r.max_new_tokens for r in requests}
    for record in report.requests:
        assert record["state"] == "finished", note
        assert record["new_tokens"] == budgets[record["request_id"]], note
    return engine, report, oracle


class TestBatchBookkeeping:
    """Fast seeds (every push)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cost_sees_the_recounted_batch(self, layout, seed):
        _, report, _ = check_layout(layout, seed)
        if LAYOUTS[layout][0]["kv_policy"] == "ondemand":
            assert report.preemptions > 0  # the pool actually ran dry

    def test_disagg_moves_kv(self):
        _, report, _ = check_layout("disagg1:3", 0)
        migration = report.to_dict()["migration"]
        assert migration["handoffs"] > 0
        assert migration["rebalances"] > 0
        assert migration["swaps"] > 0


class TestAdvanceCallCount:
    """Machine-independent guard against a return to the per-sequence walk."""

    def test_advance_runs_only_for_prefilling_sequences(self, monkeypatch):
        calls = 0
        advance = Sequence.advance

        def counting(seq, now, prefill_chunk=None):
            nonlocal calls
            calls += 1
            return advance(seq, now, prefill_chunk)

        monkeypatch.setattr(Sequence, "advance", counting)
        _, _, oracle = check_layout("disagg1:3", 0)
        assert calls == oracle.prefill_pairs
        # Walking every running sequence would call it batch_sum times.
        assert calls < oracle.batch_sum // 4


@pytest.mark.slow
class TestBatchBookkeepingLong:
    """The longer seed sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(2, 12))
    def test_cost_sees_the_recounted_batch(self, layout, seed):
        check_layout(layout, seed)
