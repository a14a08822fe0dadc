"""Policy-level invariants: reservation vs on-demand allocation, preemption,
chunked prefill, and deterministic replay across the whole policy matrix.

The property-style tests here restate the serving invariants per policy:
no mid-decode OOM (the pool is never overdrawn), no starvation (every
admissible request completes), no KV leaks (blocks fully returned), and
on-demand allocation sustaining at least the reservation policy's
batch/QPS on identical workloads.
"""

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    BlockManager,
    ContinuousBatchingScheduler,
    EngineConfig,
    FifoPriorityPolicy,
    OnDemandPolicy,
    Request,
    RequestState,
    ReservationPolicy,
    SchedulerConfig,
    ServingEngine,
    make_allocation_policy,
    poisson_workload,
    replay_workload,
)


def req(i, arrival=0.0, prompt=8, decode=8, priority=0):
    return Request(
        request_id=i,
        arrival_time=arrival,
        prompt_tokens=prompt,
        max_new_tokens=decode,
        priority=priority,
    )


def make_scheduler(policy_name, num_blocks=16, block_size=8, max_batch=8, admission="queue"):
    pool = BlockManager(num_blocks=num_blocks, block_size=block_size)
    return ContinuousBatchingScheduler(
        pool,
        SchedulerConfig(max_batch_size=max_batch, admission=admission),
        allocation=make_allocation_policy(policy_name, pool),
    )


def tiny_engine(policy, num_blocks, block_size=8, **config):
    """A MiLo engine whose pool is shrunk so KV capacity actually binds."""
    engine = ServingEngine(
        MiLoBackend(),
        "mixtral-8x7b",
        EngineConfig(block_size=block_size, kv_policy=policy, max_batch_size=1000, **config),
    )
    engine.block_manager.num_blocks = num_blocks
    return engine


class TestPolicyFactory:
    def test_known_policies(self):
        pool = BlockManager(num_blocks=4, block_size=8)
        assert isinstance(make_allocation_policy("reserve", pool), ReservationPolicy)
        assert isinstance(make_allocation_policy("ondemand", pool), OnDemandPolicy)

    def test_unknown_policy_rejected(self):
        pool = BlockManager(num_blocks=4, block_size=8)
        with pytest.raises(ValueError, match="unknown KV allocation policy"):
            make_allocation_policy("paging", pool)

    def test_engine_config_validates_policy_and_chunk(self):
        with pytest.raises(ValueError):
            EngineConfig(kv_policy="paging")
        with pytest.raises(ValueError):
            EngineConfig(prefill_chunk=0)
        with pytest.raises(ValueError):
            SchedulerConfig(prefill_chunk=-3)

    def test_allocation_policy_must_wrap_scheduler_pool(self):
        pool = BlockManager(num_blocks=4, block_size=8)
        other = BlockManager(num_blocks=4, block_size=8)
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler(pool, allocation=ReservationPolicy(other))


class TestOnDemandAdmission:
    def test_ondemand_admits_more_concurrent_sequences(self):
        """On-demand charges written tokens, not the full decode budget."""
        # Each request: prompt 8 + decode 24 = 32 tokens = 4 blocks reserved,
        # but only 2 blocks (prompt+1 = 9 tokens) on demand at admission.
        reserve = make_scheduler("reserve", num_blocks=8, block_size=8)
        ondemand = make_scheduler("ondemand", num_blocks=8, block_size=8)
        for sched in (reserve, ondemand):
            for i in range(4):
                sched.add_request(req(i, prompt=8, decode=24))
            sched.admit(now=0.0)
        assert len(reserve.running) == 2   # 8 blocks / 4 per seq
        assert len(ondemand.running) == 4  # 8 blocks / 2 per seq

    def test_never_fitting_request_rejected_by_both(self):
        for name in ("reserve", "ondemand"):
            sched = make_scheduler(name, num_blocks=2, block_size=8)
            seq = sched.add_request(req(0, prompt=64, decode=64))
            assert seq.state is RequestState.REJECTED

    def test_pool_never_overdrawn_during_growth(self):
        sched = make_scheduler("ondemand", num_blocks=4, block_size=8)
        for i in range(2):
            sched.add_request(req(i, prompt=8, decode=24))
        sched.admit(now=0.0)
        for step in range(1, 120):
            sched.ensure_capacity()
            sched.admit(now=float(step))
            if not sched.has_work:
                break
            for seq in list(sched.running):
                seq.advance(now=float(step))
            sched.evict_finished()
            assert sched.block_manager.used_blocks <= sched.block_manager.num_blocks
        assert len(sched.finished) == 2
        sched.block_manager.assert_no_leaks()


class TestPreemption:
    def drive(self, sched, max_steps=200):
        """Run admit/grow/advance/evict until the scheduler drains."""
        for step in range(1, max_steps):
            sched.ensure_capacity()
            sched.admit(now=float(step))
            if not sched.running:
                if not sched.waiting:
                    break
                continue
            for seq in list(sched.running):
                seq.advance(now=float(step), prefill_chunk=sched.config.prefill_chunk)
            sched.evict_finished()
        return sched

    def test_lowest_precedence_victim_selected(self):
        # Pool of 4 blocks; both requests admit on-demand with 2 blocks each
        # (prompt 8 + 1 token -> 2 blocks of 8).  The first decode token that
        # crosses a block boundary finds the pool dry and must preempt the
        # later-enqueued request.
        sched = make_scheduler("ondemand", num_blocks=4, block_size=8)
        first = sched.add_request(req(0, prompt=8, decode=24))
        second = sched.add_request(req(1, prompt=8, decode=24))
        sched.admit(now=0.0)
        for seq in list(sched.running):  # prefill: both emit their first token
            seq.advance(now=1.0)
        # Advance decode until a growth deficit appears; request 1 must yield.
        self.drive(sched)
        assert first.is_finished and second.is_finished
        assert second.preemptions >= 1
        assert first.preemptions == 0 or first.enqueue_index < second.enqueue_index
        assert sched.preemptions >= 1
        assert sched.recomputed_tokens > 0
        sched.block_manager.assert_no_leaks()

    def test_preempted_sequence_rejoins_ahead_of_later_arrivals(self):
        sched = make_scheduler("ondemand", num_blocks=4, block_size=8, max_batch=8)
        a = sched.add_request(req(0, prompt=8, decode=24))
        b = sched.add_request(req(1, prompt=8, decode=24))
        sched.admit(now=0.0)
        sched.allocation.release(b)
        b.preempt()
        b.requeue()
        sched.running.remove(b)
        sched.waiting.append(b)
        late = sched.add_request(req(2, prompt=8, decode=8))
        sched.waiting.sort(key=sched.policy.queue_key)
        assert [s.request.request_id for s in sched.waiting] == [1, 2]
        assert a.state is RequestState.RUNNING

    def test_preempted_sequence_never_load_shed_in_reject_mode(self):
        sched = make_scheduler("ondemand", num_blocks=4, block_size=8, admission="reject")
        keeper = sched.add_request(req(0, prompt=8, decode=24))
        victim = sched.add_request(req(1, prompt=8, decode=24))
        sched.admit(now=0.0)
        for seq in list(sched.running):
            seq.advance(now=1.0)
        self.drive(sched)
        # The victim was preempted (pool dry) but never rejected: both finish.
        assert keeper.is_finished and victim.is_finished
        assert victim.preemptions >= 1
        assert not sched.rejected
        sched.block_manager.assert_no_leaks()

    def test_recompute_on_resume_refeeds_generated_tokens(self):
        seq = make_scheduler("ondemand").add_request(req(0, prompt=10, decode=6))
        seq.admit(0.0)
        seq.advance(1.0)  # prefill -> 1 generated token
        seq.advance(2.0)
        seq.advance(3.0)  # 3 generated tokens
        recomputed = seq.preempt()
        assert recomputed == 10 + 3  # prompt + every generated token
        assert seq.state is RequestState.PREEMPTED
        seq.requeue()
        seq.admit(4.0)
        assert seq.prefill_extent == 13  # recompute pass covers prompt + generated
        seq.advance(5.0)  # re-prefill completes, next new token emitted
        assert seq.generated_tokens == 4
        assert seq.first_token_time == 1.0  # TTFT keeps the original delivery
        seq.advance(6.0)
        seq.advance(7.0)
        assert seq.is_finished


class TestChunkedPrefill:
    def test_chunk_splits_prefill_iterations(self):
        backend = MiLoBackend()
        engine = ServingEngine(
            backend, "mixtral-8x7b", EngineConfig(prefill_chunk=8)
        )
        report = engine.run(replay_workload([(0.0, 30, 4)]))
        # ceil(30 / 8) = 4 prefill iterations + 3 decode iterations.
        assert report.iterations == 4 + 3
        spec = engine.spec
        expected = (
            3 * backend.iteration_latency(spec, 8).total
            + backend.iteration_latency(spec, 6).total
            + 3 * backend.iteration_latency(spec, 1).total
        )
        assert report.sim_time_s == pytest.approx(expected, rel=1e-12)

    def test_chunked_prefill_piggybacks_with_decode(self):
        """A decoding sequence keeps emitting while a long prompt trickles in."""
        sched = make_scheduler("reserve", num_blocks=64, block_size=8)
        sched = ContinuousBatchingScheduler(
            sched.block_manager, SchedulerConfig(prefill_chunk=4)
        )
        short = sched.add_request(req(0, prompt=4, decode=12))
        long = sched.add_request(req(1, prompt=16, decode=4))
        sched.admit(now=0.0)
        # Iteration 1: short finishes prefill (4 tokens) + long's first chunk.
        assert sched.batch_tokens() == 4 + 4
        for seq in list(sched.running):
            seq.advance(now=1.0, prefill_chunk=4)
        assert short.generated_tokens == 1
        assert not long.prefill_done and long.prefill_progress == 4
        # Iteration 2: short decodes (1 row) alongside long's next chunk.
        assert sched.batch_tokens() == 1 + 4
        for seq in list(sched.running):
            seq.advance(now=2.0, prefill_chunk=4)
        assert short.generated_tokens == 2

    def test_chunked_prefill_improves_competing_ttft(self):
        """Chunking a long prompt lets a short request start sooner."""
        trace = [(0.0, 600, 8), (0.001, 16, 8)]
        whole = tiny_engine("reserve", num_blocks=200).run(replay_workload(trace))
        chunked = tiny_engine("reserve", num_blocks=200, prefill_chunk=64).run(
            replay_workload(trace)
        )
        ttft_whole = next(r for r in whole.requests if r["request_id"] == 1)["ttft_s"]
        ttft_chunked = next(r for r in chunked.requests if r["request_id"] == 1)["ttft_s"]
        assert ttft_chunked < ttft_whole

    def test_default_chunk_none_matches_pr1_iteration_count(self):
        backend = MiLoBackend()
        engine = ServingEngine(backend, "mixtral-8x7b")
        report = engine.run(replay_workload([(0.0, 32, 4)]))
        assert report.iterations == 4  # 1 prefill + 3 decode, unchanged


class TestPolicyComparisonProperties:
    """On-demand sustains >= reservation's batch/QPS on identical workloads."""

    WORKLOADS = [
        poisson_workload(40, qps=50.0, seed=seed, mean_prompt_tokens=48, mean_new_tokens=96)
        for seed in (0, 1, 2)
    ]

    @pytest.mark.parametrize("workload", WORKLOADS, ids=["seed0", "seed1", "seed2"])
    def test_ondemand_sustains_at_least_reservation(self, workload):
        reserve = tiny_engine("reserve", num_blocks=60).run(workload)
        ondemand = tiny_engine("ondemand", num_blocks=60).run(workload)
        # Everyone completes under both policies (no starvation, no loss).
        assert reserve.completed == ondemand.completed == len(workload)
        assert ondemand.peak_batch >= reserve.peak_batch
        assert ondemand.sustained_qps >= reserve.sustained_qps
        assert ondemand.kv_utilization_peak <= 1.0

    @pytest.mark.parametrize("policy", ["reserve", "ondemand"])
    def test_blocks_fully_returned(self, policy):
        engine = tiny_engine(policy, num_blocks=60)
        engine.run(poisson_workload(30, qps=50.0, seed=3, mean_new_tokens=96))
        assert engine.block_manager.outstanding_sequences == 0
        assert engine.block_manager.free_blocks == engine.block_manager.num_blocks
        engine.block_manager.assert_no_leaks()

    @pytest.mark.parametrize("policy", ["reserve", "ondemand"])
    def test_deterministic_replay_per_policy(self, policy):
        workload = poisson_workload(30, qps=50.0, seed=4, mean_new_tokens=96)
        first = tiny_engine(policy, num_blocks=60).run(workload).to_dict()
        second = tiny_engine(policy, num_blocks=60).run(workload).to_dict()
        assert first == second  # bit-exact, preemptions and all

    PRESSURE = dict(qps=100.0, seed=5, mean_prompt_tokens=48, mean_new_tokens=128)

    def test_ondemand_preempts_under_pressure_and_still_drains(self):
        workload = poisson_workload(30, **self.PRESSURE)
        engine = tiny_engine("ondemand", num_blocks=60)
        report = engine.run(workload)
        assert report.preemptions > 0
        assert report.recomputed_tokens > 0
        assert report.completed == 30
        engine.block_manager.assert_no_leaks()

    def test_reservation_never_preempts(self):
        workload = poisson_workload(30, **self.PRESSURE)
        report = tiny_engine("reserve", num_blocks=60).run(workload)
        assert report.completed == 30
        assert report.preemptions == 0
        assert report.recomputed_tokens == 0


def strip_prefixes(workload):
    """The identical workload with prefix identity removed (no sharing)."""
    from dataclasses import replace

    return [replace(r, prefix_id=None, prefix_tokens=0) for r in workload]


class TestPrefixSharingAdmission:
    def test_shared_admission_packs_more_concurrent_sequences(self):
        """Sharers only charge the pool for their private blocks."""
        # Prompt = 16 shared + 8 private = 24 tokens; +1 decode token on
        # admission -> 4 blocks each, but 2 of them shared across the group.
        sched = make_scheduler("ondemand", num_blocks=8, block_size=8)
        plain = make_scheduler("ondemand", num_blocks=8, block_size=8)
        for i in range(3):
            sched.add_request(
                Request(
                    request_id=i, arrival_time=0.0, prompt_tokens=24,
                    max_new_tokens=8, prefix_id=0, prefix_tokens=16,
                )
            )
            plain.add_request(req(i, prompt=24, decode=8))
        sched.admit(now=0.0)
        plain.admit(now=0.0)
        assert len(plain.running) == 2   # 8 blocks / 4 per seq
        assert len(sched.running) == 3   # 2 shared + 3 x 2 private = 8 blocks
        assert sched.block_manager.shared_blocks == 2

    def test_prefix_hit_skips_prefill_compute(self):
        sched = make_scheduler("ondemand", num_blocks=16, block_size=8)
        for i in range(2):
            sched.add_request(
                Request(
                    request_id=i, arrival_time=0.0, prompt_tokens=24,
                    max_new_tokens=4, prefix_id=0, prefix_tokens=16,
                )
            )
        sched.admit(now=0.0)
        first, second = sched.running
        assert first.prefix_hit_tokens == 0      # registrar computes everything
        assert second.prefix_hit_tokens == 16    # sharer skips the resident KV
        assert first.tokens_this_iteration() == 24
        assert second.tokens_this_iteration() == 8

    def test_full_prompt_hit_still_computes_one_token(self):
        """A 100% resident prompt must still run its final prefill token
        (the iteration that emits the first output token)."""
        sched = make_scheduler("ondemand", num_blocks=16, block_size=8)
        for i in range(2):
            sched.add_request(
                Request(
                    request_id=i, arrival_time=0.0, prompt_tokens=16,
                    max_new_tokens=4, prefix_id=0, prefix_tokens=16,
                )
            )
        sched.admit(now=0.0)
        sharer = sched.running[1]
        assert sharer.prefix_hit_tokens == 15
        assert sharer.tokens_this_iteration() == 1

    @pytest.mark.parametrize("policy", ["reserve", "ondemand"])
    def test_shared_runs_drain_without_leaks(self, policy):
        workload = poisson_workload(
            30, qps=50.0, seed=6, mean_prompt_tokens=32, mean_new_tokens=48,
            shared_prefix_tokens=64, prefix_groups=3,
        )
        engine = tiny_engine(policy, num_blocks=80)
        report = engine.run(workload)
        assert report.completed == 30
        assert report.prefix_hit_tokens > 0
        assert report.prefix_dedup_ratio > 1.0
        engine.block_manager.assert_no_leaks()

    @pytest.mark.parametrize("policy", ["reserve", "ondemand"])
    def test_shared_runs_are_deterministic(self, policy):
        workload = poisson_workload(
            25, qps=50.0, seed=7, mean_new_tokens=48,
            shared_prefix_tokens=48, prefix_groups=2,
        )
        first = tiny_engine(policy, num_blocks=80).run(workload).to_dict()
        second = tiny_engine(policy, num_blocks=80).run(workload).to_dict()
        assert first == second

    def test_sole_holder_divergence_unregisters_before_late_sharer(self):
        """A lone registrar writing into its partial prefix block must pull
        it from the index (free, no copy) so a later group member does not
        hit KV that has diverged from the pure prefix."""
        sched = make_scheduler("ondemand", num_blocks=32, block_size=8)
        shared_req = lambda i: Request(  # noqa: E731 - local literal helper
            request_id=i, arrival_time=0.0, prompt_tokens=20,
            max_new_tokens=6, prefix_id=0, prefix_tokens=20,
        )
        early = sched.add_request(shared_req(0))
        sched.admit(now=0.0)
        # The deficit pass before early's first emitting iteration performs
        # the free un-registration of the about-to-diverge tail block.
        assert sched.ensure_capacity() == []
        early.advance(now=1.0)
        late = sched.add_request(shared_req(1))
        sched.admit(now=2.0)
        assert late.prefix_hit_tokens == 16  # full blocks only, not the tail
        assert sched.block_manager.cow_copies == 0
        sched.block_manager.check_invariants()

    def test_resumed_sequence_never_shares_the_partial_tail(self):
        """Recompute-on-resume re-prefills generated tokens into the tail
        block; admission must map it privately (prefill extent != prefix)
        even though the prompt alone equals the prefix."""
        sched = make_scheduler("ondemand", num_blocks=32, block_size=8)
        sharers = [
            sched.add_request(
                Request(
                    request_id=i, arrival_time=0.0, prompt_tokens=20,
                    max_new_tokens=8, prefix_id=0, prefix_tokens=20,
                )
            )
            for i in range(2)
        ]
        sched.admit(now=0.0)
        keeper, victim = sharers
        for seq in sharers:  # prefill: each emits its first token
            seq.advance(now=1.0)
        sched._preempt(victim)
        assert victim.recompute_base == 1
        sched.admit(now=2.0)
        assert victim.state is RequestState.RUNNING
        pool = sched.block_manager
        k_table = pool.block_table(keeper.request.request_id)
        v_table = pool.block_table(victim.request.request_id)
        assert v_table[:2] == k_table[:2]   # full prefix blocks still shared
        assert v_table[2] != k_table[2]     # the divergent tail is private
        pool.check_invariants()

    def test_cow_fires_end_to_end(self):
        """Two sequences whose whole prompt is a partial-tailed prefix share
        the tail block; the first decode write copies it (CoW) and both
        finish with the sharer's KV intact."""
        trace = [
            (0.0, 20, 6, 0, 0, 20),
            (0.0, 20, 6, 0, 0, 20),
        ]
        engine = tiny_engine("ondemand", num_blocks=40)
        report = engine.run(replay_workload(trace))
        assert report.completed == 2
        assert report.prefix_cow_copies >= 1
        assert report.prefix_hit_tokens > 0
        engine.block_manager.assert_no_leaks()

    def test_chunked_prefix_only_prefill_copies_on_first_emit(self):
        """A prefix-only prompt prefilled in several chunks is checked at the
        boundary of its prefill-completing iteration: that write lands in the
        shared partial tail, so copy-on-write must fire even though the
        earlier chunk boundaries skipped the sequence."""
        pool = BlockManager(num_blocks=32, block_size=8)
        sched = ContinuousBatchingScheduler(
            pool,
            SchedulerConfig(max_batch_size=8, prefill_chunk=8),
            allocation=make_allocation_policy("ondemand", pool),
        )
        prefix_only = lambda i: Request(  # noqa: E731 - local literal helper
            request_id=i, arrival_time=0.0, prompt_tokens=20,
            max_new_tokens=6, prefix_id=0, prefix_tokens=20,
        )

        def boundary(step):
            preempted = sched.ensure_capacity()
            sched.admit(now=float(step))
            for seq in list(sched.running):
                seq.advance(now=float(step), prefill_chunk=8)
            return preempted

        registrar = sched.add_request(prefix_only(0))
        assert boundary(0) == []  # first 8-token chunk
        # The sharer maps all three prefix blocks (tail included) and, with
        # one token left to recompute, emits in the registrar's second chunk.
        sharer = sched.add_request(prefix_only(1))
        assert boundary(1) == []
        assert sharer.prefix_hit_tokens == 19 and sharer.prefill_done
        assert not registrar.prefill_done and registrar.remaining_prefill == 4
        assert pool.cow_copies == 0
        # The registrar's final chunk emits its first token into the tail.
        assert sched.ensure_capacity() == []
        assert pool.cow_copies == 1
        r_table = pool.block_table(registrar.request.request_id)
        s_table = pool.block_table(sharer.request.request_id)
        assert r_table[:2] == s_table[:2] and r_table[2] != s_table[2]
        # The copy made the tail private, so the threshold is armed at the
        # end of the registrar's 3-block table.
        assert registrar.kv_check_tokens == 3 * 8 + 1
        # The sharer, now sole holder of the indexed tail, wrote into it at
        # the same boundary, so a late group member hits full blocks only.
        late = sched.add_request(prefix_only(2))
        sched.admit(now=3.0)
        assert late.prefix_hit_tokens == 16
        pool.check_invariants()

    def test_swap_readmission_resets_threshold_and_still_grows(self):
        """A swap victim re-admitted with its ``max(written, extent) + 1``
        allocation starts unarmed, and its next block boundary still grows."""
        pool = BlockManager(num_blocks=32, block_size=8)
        sched = ContinuousBatchingScheduler(
            pool,
            SchedulerConfig(max_batch_size=8, preempt_mode="swap"),
            allocation=make_allocation_policy("ondemand", pool),
        )
        seq = sched.add_request(req(0, prompt=8, decode=40))
        seq_id = seq.request.request_id

        def step(now):
            sched.ensure_capacity()
            sched.admit(now=now)
            seq.advance(now=now)
            # The iteration just run wrote inside the held table.
            assert pool.blocks_held(seq_id) * 8 >= seq.kv_tokens_written()

        for i in range(10):  # prefill + 9 decode tokens, one growth at 17
            step(float(i))
        assert pool.blocks_held(seq_id) == 3
        assert seq.kv_check_tokens == 25
        sched._preempt(seq)
        assert seq.swapped_tokens == 18
        sched.admit(now=10.0)
        assert seq.state is RequestState.RUNNING
        assert seq.kv_check_tokens == 0  # re-admission disarms the threshold
        assert pool.blocks_held(seq_id) == 3  # max(18, 8) + 1 = 19 tokens
        held = []
        for i in range(11, 20):
            step(float(i))
            held.append(pool.blocks_held(seq_id))
        # Token 25 (the first past the 24-token table) grows it exactly once.
        assert held == [3] * 6 + [4] * 3
        assert seq.kv_check_tokens == 33
        pool.check_invariants()


class TestPrefixSharingProperties:
    """Shared-prefix traffic beats the identical unshared traffic under
    on-demand allocation at equal VRAM (the ISSUE 3 acceptance property)."""

    WORKLOAD = poisson_workload(
        60, qps=40.0, seed=11, mean_prompt_tokens=16, mean_new_tokens=32,
        shared_prefix_tokens=96, prefix_groups=2,
    )

    def test_sharing_beats_no_sharing_batch_blocks_qps(self):
        shared_engine = tiny_engine("ondemand", num_blocks=100)
        shared = shared_engine.run(self.WORKLOAD)
        unshared_engine = tiny_engine("ondemand", num_blocks=100)
        unshared = unshared_engine.run(strip_prefixes(self.WORKLOAD))
        assert shared.completed == unshared.completed == 60
        assert shared.peak_batch > unshared.peak_batch
        # Strictly fewer physical block allocations serve the same workload
        # (both runs saturate the pool, so the cumulative count is the
        # meaningful "allocates fewer blocks" measure).
        assert (
            shared_engine.block_manager.physical_allocs
            < unshared_engine.block_manager.physical_allocs
        )
        assert shared.kv_peak_used_blocks <= unshared.kv_peak_used_blocks
        assert shared.sustained_qps > unshared.sustained_qps
        assert shared.prefix_hit_tokens > 0
        assert shared.prefix_shared_blocks_peak > 0
        assert unshared.prefix_hit_tokens == 0
        assert unshared.prefix_dedup_ratio == 1.0

    def test_victim_selection_prefers_low_sharing_holder(self):
        """Preempting a sharer frees little; the policy picks the private
        holder when priorities tie, even if it enqueued earlier."""
        pool = BlockManager(num_blocks=16, block_size=8)
        sched = ContinuousBatchingScheduler(
            pool,
            SchedulerConfig(max_batch_size=8),
            allocation=make_allocation_policy("ondemand", pool),
        )
        private = sched.add_request(req(0, prompt=24, decode=8))
        sharers = [
            sched.add_request(
                Request(
                    request_id=i, arrival_time=0.0, prompt_tokens=24,
                    max_new_tokens=8, prefix_id=0, prefix_tokens=24,
                )
            )
            for i in (1, 2)
        ]
        sched.admit(now=0.0)
        assert len(sched.running) == 3
        candidates = list(sched.running)
        victim = sched.policy.select_victim(candidates, pool)
        assert victim is private  # lowest-sharing holder despite earliest enqueue
        # Without the pool the classic (priority, enqueue_index) order rules.
        assert sched.policy.select_victim(candidates) is sharers[-1]
