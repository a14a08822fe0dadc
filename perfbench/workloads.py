"""The benchmark's workloads: inputs from a seed, the measured unit, its check.

Serving workloads replay a seeded Poisson trace through a fresh
:class:`~repro.serving.ServingEngine` (MiLo backend, Mixtral-8x7B, A100-40GB,
default ``EngineConfig`` unless stated, so ``debug_checks`` stays on).
Arrivals are open-loop in *simulated* time; on the host each replay is one
single-threaded batch job, so the generator cannot run late.  The compression
workload runs MiLo 3-bit compression of ``mixtral-mini`` and scores it by
perplexity on the teacher corpus.

Every measured unit is checked: a serving replay must conserve requests and
reproduce the report digest pinned for its seed in ``pins.json`` (on a seed
with no pin: conservation, the engine's end-of-run audit, and the same digest
on every replay of the run); compression must reproduce its pinned
``ppl_ratio`` and ``compression_ratio`` exactly (on a seed with no pin: the
same values on every repetition).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.core.milo as milo_module
from repro.core import (
    CompositeRankPolicy,
    MiLoMatrixOptimizer,
    ModelCompressor,
    build_strategy,
    build_weight_entries,
)
from repro.data.corpus import teacher_corpus
from repro.eval.perplexity import perplexity
from repro.models import build_model
from repro.quant.hqq import HQQQuantizer
from repro.runtime.backends import InferenceBackend, MiLoBackend
from repro.serving import (
    AllocationPolicy,
    BlockManager,
    ContinuousBatchingScheduler,
    EngineConfig,
    OnDemandPolicy,
    ServingEngine,
    ServingReport,
    ShardedBlockManager,
    Tracer,
    analyze_trace,
    poisson_workload,
)

from hostclock import HostClock
from layers import LAYERS, SpanRecorder, layer_tree

#: Fewest measured units per run, whatever ``--seconds`` says: host-time
#: metrics are medians over units, and one unit would be one sample's noise.
#: Long units (``disagg_handoff``, ``compress_milo``) stop at two so that a
#: run stays close to ``--seconds``.
MIN_REPS = 2
#: Host seconds of set-up timed per run at the least: a run that sets up in a
#: few milliseconds repeats the set-up until the median is steady.
SETUP_MIN_TOTAL_S = 1.0
#: The tracer A/B replays the leading quarter of the trace, at most this many
#: requests: a repo ``Tracer`` keeps one event per iteration, and the traced
#: run must stay well inside its time limit.
TRACER_AB_REQUESTS = 10_000


@dataclass(frozen=True)
class ServingWorkload:
    """A seeded Poisson trace and the engine configuration that serves it."""

    name: str
    num_requests: int
    qps: float
    mean_prompt_tokens: int
    mean_new_tokens: int
    #: Per-workload SLO: a request attains it when its TTFT and TPOT are both
    #: within these limits (simulated seconds).
    ttft_limit_s: float
    tpot_limit_s: float
    shared_prefix_tokens: int = 0
    prefix_groups: int = 1
    #: Share of requests whose prompt is exactly the shared prefix.  The
    #: prefix is not block-aligned, so such a request maps the partial last
    #: prefix block read-only and copies it on its first decode write (CoW).
    prefix_only_share: float = 0.0
    config: dict[str, Any] = field(default_factory=dict)

    def requests(self, seed: int) -> list:
        requests = poisson_workload(
            num_requests=self.num_requests,
            qps=self.qps,
            seed=seed,
            mean_prompt_tokens=self.mean_prompt_tokens,
            mean_new_tokens=self.mean_new_tokens,
            shared_prefix_tokens=self.shared_prefix_tokens,
            prefix_groups=self.prefix_groups,
        )
        if self.prefix_only_share:
            picks = np.random.default_rng([seed, 1]).random(len(requests))
            requests = [
                dataclasses.replace(r, prompt_tokens=r.prefix_tokens)
                if pick < self.prefix_only_share
                else r
                for r, pick in zip(requests, picks.tolist())
            ]
        return requests

    def engine(self) -> ServingEngine:
        return ServingEngine(MiLoBackend(), "mixtral-8x7b", EngineConfig(**self.config))


@dataclass(frozen=True)
class CompressWorkload:
    """MiLo compression of a mini model, scored on a seeded teacher corpus."""

    name: str
    model: str
    strategy: str
    bits: int
    eval_sequences: int
    eval_seq_len: int


WORKLOADS: dict[str, ServingWorkload | CompressWorkload] = {
    w.name: w
    for w in (
        ServingWorkload(
            name="decode_steady",
            num_requests=100_000,
            qps=2.0,
            mean_prompt_tokens=128,
            mean_new_tokens=64,
            ttft_limit_s=0.05,
            tpot_limit_s=0.022,
        ),
        ServingWorkload(
            name="kv_pressure",
            num_requests=12_000,
            qps=8.5,
            mean_prompt_tokens=128,
            mean_new_tokens=128,
            shared_prefix_tokens=500,
            prefix_groups=4,
            prefix_only_share=0.25,
            ttft_limit_s=0.055,
            tpot_limit_s=0.028,
            config=dict(kv_policy="ondemand", reserve_gb=19.6),
        ),
        ServingWorkload(
            name="disagg_handoff",
            num_requests=1_000,
            qps=6.0,
            mean_prompt_tokens=512,
            mean_new_tokens=2048,
            ttft_limit_s=1.0,
            tpot_limit_s=0.035,
            config=dict(
                devices=4,
                prefill_devices=1,
                decode_devices=3,
                kv_policy="ondemand",
                preempt_mode="swap",
                reserve_gb=20.0,
                max_batch_size=256,
            ),
        ),
        CompressWorkload(
            name="compress_milo",
            model="mixtral-mini",
            strategy="mixtral-s1",
            bits=3,
            eval_sequences=256,
            eval_seq_len=16,
        ),
    )
}


# -- results ---------------------------------------------------------------------
@dataclass
class RunResult:
    """What one run prints: the check outcome, counts and named metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.correct = False
        self.notes.append(f"CHECK FAILED: {why}")

    def as_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (``VmHWM``) for this process.

    Where the kernel refuses, the peak stays process-wide.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss` (or process start), MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (no interpolation)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Timings:
    """Set-up and measured-unit times and peak RSS of one run.

    Each interval is kept both as wall seconds and as reference-speed seconds
    (:class:`HostClock`); the metrics use the latter, the run's notes show
    both.  Peak RSS is taken per unit and reported as the median: the
    allocator's history makes the process-wide peak vary by 10% from run to
    run, the per-unit peak by about 2%.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.setup: list[tuple[float, float]] = []
        self.run: list[tuple[float, float]] = []
        #: Peak RSS of each set-up + measured unit, MB.
        self.peaks: list[float] = []

    def add(self, series: list[tuple[float, float]], start: float, end: float) -> None:
        series.append((end - start, self.clock.seconds(start, end)))

    def more_setups(self, setup: Callable[[], object]) -> None:
        """Repeat ``setup`` until at least ``SETUP_MIN_TOTAL_S`` of set-up is timed."""
        while sum(wall for wall, _ in self.setup) < SETUP_MIN_TOTAL_S:
            t0 = time.perf_counter()
            setup()
            self.add(self.setup, t0, time.perf_counter())

    @staticmethod
    def median(series: list[tuple[float, float]], scaled: bool = True) -> float:
        return statistics.median(pair[1] if scaled else pair[0] for pair in series)

    def note(self, what: str) -> str:
        return (
            f"{len(self.run)} {what}, {len(self.setup)} set-ups; host times are medians "
            f"rescaled to reference speed (wall medians: setup "
            f"{self.median(self.setup, False):.4g} s, run {self.median(self.run, False):.4g} s; "
            f"median host slowdown {self.clock.slowdown():.2f}x)"
        )


def load_pins(path: str) -> dict[str, dict[str, Any]]:
    with open(path) as fh:
        return json.load(fh)


# -- serving ---------------------------------------------------------------------
def _span(recorder: SpanRecorder | None, name: str) -> Any:
    """A span on ``recorder``, or nothing when the run is not traced."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def replay(engine: ServingEngine, requests: list, recorder: SpanRecorder | None = None):
    """The measured unit: run, report ``to_dict``, and the report's digest."""
    report = engine.run(requests)
    report_dict = report.to_dict()
    with _span(recorder, "serialize.report_sha256"):
        text = json.dumps(report_dict, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
    return report, report_dict, digest


@dataclass
class Served:
    """The exact (simulated) outcome of one replay of a seed."""

    digest: str
    submitted: int
    unserved: int
    sim_tokens: int
    ttft: list[float]
    tpot: list[float]
    slo_attained: int


def served(w: ServingWorkload, requests: list, report: ServingReport, report_dict: dict,
           digest: str) -> Served:
    finished = [r for r in report_dict["requests"] if r["state"] == "finished"]
    return Served(
        digest=digest,
        submitted=len(requests),
        unserved=report.rejected + report.stranded,
        sim_tokens=int(round(report.iterations * report.mean_batch_tokens)),
        ttft=sorted(r["ttft_s"] for r in finished),
        tpot=sorted(r["tpot_s"] for r in finished),
        slo_attained=sum(
            1
            for r in finished
            if r["ttft_s"] <= w.ttft_limit_s and r["tpot_s"] <= w.tpot_limit_s
        ),
    )


def check_served(w: ServingWorkload, seed: int, report: ServingReport, s: Served, pins: dict,
                 result: RunResult, reference: str | None) -> bool:
    """Conservation plus the pinned (or run-stable) digest; records failures."""
    ok = True
    if report.num_requests != s.submitted or (
        report.completed + report.rejected + report.stranded != s.submitted
    ):
        result.fail(
            f"{w.name} seed {seed}: {report.completed} completed + {report.rejected} "
            f"rejected + {report.stranded} stranded != {s.submitted} submitted"
        )
        ok = False
    pin = pins.get(w.name, {}).get(str(seed))
    expected = pin if pin is not None else reference
    if expected is not None and s.digest != expected:
        source = "pinned" if pin is not None else "first replay's"
        result.fail(f"{w.name} seed {seed}: report sha256 {s.digest} != {source} {expected}")
        ok = False
    return ok


def run_serving(w: ServingWorkload, seed: int, seconds: float, pins: dict) -> RunResult:
    """Untraced run: replay the seed's trace on fresh engines for ``seconds``."""
    result = RunResult()
    outcome: Served | None = None
    deadline = time.perf_counter() + seconds
    with HostClock("python") as clock:
        times = Timings(clock)
        while len(times.run) < MIN_REPS or time.perf_counter() < deadline:
            gc.collect()
            reset_peak_rss()
            t0 = time.perf_counter()
            requests = w.requests(seed)
            engine = w.engine()
            t1 = time.perf_counter()
            times.add(times.setup, t0, t1)
            try:
                report, report_dict, digest = replay(engine, requests)
            except Exception:
                # The engine's end-of-run audit raises on a leak or a broken
                # invariant: the replay counts as all-failed.
                traceback.print_exc(file=sys.stderr)
                result.fail(f"{w.name} seed {seed}: replay raised")
                result.attempted += len(requests)
                result.failed += len(requests)
                times.add(times.run, t1, time.perf_counter())
                continue
            times.add(times.run, t1, time.perf_counter())
            times.peaks.append(peak_rss_mb())
            s = served(w, requests, report, report_dict, digest)
            ok = check_served(
                w, seed, report, s, pins, result, outcome.digest if outcome else None)
            # Free this replay before the next one is built, so peak RSS is
            # one replay's footprint.
            del report, report_dict, engine, requests
            result.attempted += s.submitted
            result.failed += s.unserved if ok else s.submitted
            if outcome is None:
                outcome = s
        times.more_setups(lambda: (w.requests(seed), w.engine()))
    run_s = times.median(times.run)
    result.notes.append(
        f"{w.name} seed {seed}: {times.note(f'replays of {w.num_requests} requests')}"
    )
    result.metrics = {
        "setup_s": (times.median(times.setup), "s"),
        "run_s": (run_s, "s"),
        "work_per_s": ((outcome.sim_tokens if outcome else 0) / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(times.peaks or [peak_rss_mb()]), "MB"),
        "served_frac": (1.0 - result.failed / result.attempted, "ratio"),
        "quality": ((outcome.slo_attained / outcome.submitted) if outcome else 0.0, "ratio"),
    }
    return result


def _patch_serving_layers(recorder: SpanRecorder) -> None:
    recorder.patch(ServingEngine, "run", "engine.run")
    recorder.patch(ServingReport, "to_dict", "report.to_dict")
    recorder.patch(InferenceBackend, "iteration_latency", "backend.iteration_latency")
    recorder.patch(InferenceBackend, "check_memory", "backend.check_memory")
    for attr in ("admit", "ensure_capacity", "evict_finished"):
        recorder.patch(ContinuousBatchingScheduler, attr, f"scheduler.{attr}")
    for cls in (AllocationPolicy, OnDemandPolicy):
        recorder.patch(cls, "blocks_deficit", "kv_cache.blocks_deficit", count_positive=True)
    for attr, name in (
        ("allocate", "kv_cache.allocate"),
        ("allocate_shared", "kv_cache.allocate"),
        ("grow", "kv_cache.grow"),
        ("free", "kv_cache.free"),
        ("ensure_writable", "kv_cache.ensure_writable"),
    ):
        recorder.patch(BlockManager, attr, name)
    recorder.patch(ShardedBlockManager, "migrate", "cluster.migrate")
    for attr in ("used_blocks", "shared_blocks", "used_blocks_on", "free_blocks_on"):
        recorder.patch(ShardedBlockManager, attr, "cluster.block_query")


def _timed_replay(w: ServingWorkload, requests: list, tracer: Tracer | None = None):
    """A replay on a fresh engine, with its wall-clock start and end."""
    gc.collect()
    engine = w.engine()
    if tracer is not None:
        engine.enable_telemetry(tracer)
    t0 = time.perf_counter()
    report, report_dict, digest = replay(engine, requests)
    return (t0, time.perf_counter()), report, report_dict, digest


def trace_serving(w: ServingWorkload, seed: int, pins: dict, spans_path: str) -> tuple[RunResult, str]:
    """Traced run: per-layer split of one replay, tracing overheads, modelled outputs."""
    result = RunResult()
    requests = w.requests(seed)
    (b0, b1), report, report_dict, digest = _timed_replay(w, requests)
    s = served(w, requests, report, report_dict, digest)
    check_served(w, seed, report, s, pins, result, None)

    recorder = SpanRecorder(run_id=f"{w.name}-seed{seed}")
    t0 = time.perf_counter()
    with recorder.span("workload.build"):
        requests = w.requests(seed)
    with recorder.span("engine.build"):
        engine = w.engine()
    _patch_serving_layers(recorder)
    try:
        t1 = time.perf_counter()
        traced_report, traced_dict, traced_digest = replay(engine, requests, recorder)
        t2 = time.perf_counter()
    finally:
        recorder.unpatch()
    traced_total = t2 - t0
    del engine, traced_report, traced_dict
    if traced_digest != digest:
        result.fail(f"{w.name} seed {seed}: traced replay changed the report digest")

    # Repo Tracer attached vs detached, interleaved (off, on, on, off), on the
    # same leading requests of the trace; the last attached replay also gives
    # the queueing breakdown (``analyze_trace`` phases).
    ab_requests = requests[: min(TRACER_AB_REQUESTS, len(requests) // 4)]
    off_times: list[float] = []
    on_times: list[float] = []
    analysis: dict[str, Any] = {}
    ab_digests: dict[bool, set[str]] = {False: set(), True: set()}
    with HostClock("python") as clock:
        for attach in (False, True, True, False):
            tracer = Tracer() if attach else None
            (a0, a1), _, _, ab_digest = _timed_replay(w, ab_requests, tracer)
            (on_times if attach else off_times).append(clock.seconds(a0, a1))
            ab_digests[attach].add(ab_digest)
            if tracer is not None:
                analysis = analyze_trace(tracer.events, (), tracer.meta)
                del tracer
    if len(ab_digests[False] | ab_digests[True]) != 1:
        result.fail(f"{w.name} seed {seed}: attaching a Tracer changed the report digest")

    result.attempted = s.submitted
    result.failed = s.unserved if result.correct else s.submitted
    recorder.write(spans_path)
    result.metrics = serving_layer_metrics(
        s, report, recorder, b1 - b0, t2 - t1,
        statistics.median(on_times) / statistics.median(off_times) - 1.0,
        analysis,
    )
    result.metrics.update(layer_shares(recorder, traced_total))
    tree = layer_tree(f"{w.name} seed {seed}", recorder, traced_total)
    result.notes.append(
        f"{w.name} seed {seed}: 1 untraced + 1 span-traced replay of {w.num_requests} "
        f"requests; tracer A/B 2+2 replays of {len(ab_requests)}; spans -> {spans_path}"
    )
    return result, tree


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def serving_layer_metrics(s: Served, report: ServingReport, r: SpanRecorder, base_run_s: float,
                          traced_run_s: float, tracer_overhead: float,
                          analysis: dict[str, Any]) -> dict[str, tuple[float, str]]:
    cluster = report.cluster or {}
    migration = report.migration or {}
    prompt_tokens = sum(rec["prompt_tokens"] for rec in report.requests)
    kv_ops = ("kv_cache.allocate", "kv_cache.grow", "kv_cache.free", "kv_cache.ensure_writable")
    return {
        "workload.build_s": (r.total_s("workload.build"), "s"),
        "engine.run_self_s": (r.self_s("engine.run"), "s"),
        "engine.host_us_per_iteration": (
            _ratio(r.total_s("engine.run") * 1e6, report.iterations), "us"),
        "engine.iterations": (report.iterations, "count"),
        "engine.sim_ttft_p50_s": (nearest_rank(s.ttft, 0.50), "sim_s"),
        "engine.sim_ttft_p99_s": (nearest_rank(s.ttft, 0.99), "sim_s"),
        "engine.sim_tpot_p50_s": (nearest_rank(s.tpot, 0.50), "sim_s"),
        "engine.sim_tpot_p99_s": (nearest_rank(s.tpot, 0.99), "sim_s"),
        "engine.sim_qps": (report.sustained_qps, "1/sim_s"),
        "report.to_dict_s": (r.total_s("report.to_dict"), "s"),
        "report.serialize_s": (r.total_s("serialize.report_sha256"), "s"),
        "backend.iteration_latency_calls": (r.calls("backend.iteration_latency"), "count"),
        "backend.iteration_latency_s": (r.total_s("backend.iteration_latency"), "s"),
        "backend.check_memory_calls": (r.calls("backend.check_memory"), "count"),
        "backend.check_memory_s": (r.total_s("backend.check_memory"), "s"),
        "scheduler.admit_calls": (r.calls("scheduler.admit"), "count"),
        "scheduler.admit_s": (r.total_s("scheduler.admit"), "s"),
        "scheduler.ensure_capacity_calls": (r.calls("scheduler.ensure_capacity"), "count"),
        "scheduler.ensure_capacity_s": (r.total_s("scheduler.ensure_capacity"), "s"),
        "scheduler.evict_finished_s": (r.total_s("scheduler.evict_finished"), "s"),
        "scheduler.queued_share": (analysis["phases"]["queued"]["share"], "ratio"),
        "scheduler.preemptions": (report.preemptions, "count"),
        "scheduler.recomputed_tokens": (report.recomputed_tokens, "tok"),
        "scheduler.mean_batch_tokens": (report.mean_batch_tokens, "tok"),
        "scheduler.peak_batch": (report.peak_batch, "count"),
        "kv_cache.blocks_deficit_calls": (r.calls("kv_cache.blocks_deficit"), "count"),
        "kv_cache.blocks_deficit_s": (r.total_s("kv_cache.blocks_deficit"), "s"),
        "kv_cache.deficit_useful_ratio": (
            _ratio(r.positive("kv_cache.blocks_deficit"), r.calls("kv_cache.blocks_deficit")),
            "ratio"),
        "kv_cache.allocate_calls": (r.calls("kv_cache.allocate"), "count"),
        "kv_cache.grow_calls": (r.calls("kv_cache.grow"), "count"),
        "kv_cache.free_calls": (r.calls("kv_cache.free"), "count"),
        "kv_cache.ensure_writable_calls": (r.calls("kv_cache.ensure_writable"), "count"),
        "kv_cache.ops_s": (sum(r.total_s(name) for name in kv_ops), "s"),
        "kv_cache.peak_utilization": (report.kv_utilization_peak, "ratio"),
        "kv_cache.prefix_hit_share": (_ratio(report.prefix_hit_tokens, prompt_tokens), "ratio"),
        "kv_cache.cow_copies": (report.prefix_cow_copies, "count"),
        "cluster.migrate_calls": (r.calls("cluster.migrate"), "count"),
        "cluster.migrate_s": (r.total_s("cluster.migrate"), "s"),
        "cluster.block_query_calls": (r.calls("cluster.block_query"), "count"),
        "cluster.block_query_s": (r.total_s("cluster.block_query"), "s"),
        "cluster.handoffs": (migration.get("handoffs", 0), "count"),
        "cluster.handoff_stall_s": (migration.get("handoff_s", 0.0), "sim_s"),
        "cluster.rebalances": (migration.get("rebalances", 0), "count"),
        "cluster.swaps": (migration.get("swaps", 0), "count"),
        "cluster.swap_in_s": (migration.get("swap_in_s", 0.0), "sim_s"),
        "cluster.straggler_ratio": (cluster.get("straggler_ratio", 0.0), "ratio"),
        "telemetry.tracer_overhead_frac": (tracer_overhead, "ratio"),
        "trace.overhead_frac": (traced_run_s / base_run_s - 1.0, "ratio"),
    }


# -- compression -----------------------------------------------------------------
@dataclass
class Compressed:
    ppl_ratio: float
    compression_ratio: float
    weights: int
    iterations: int


def compress_once(
    w: CompressWorkload, teacher_ppl: float, corpus
) -> tuple[tuple[float, float], Compressed]:
    """The measured unit: ``ModelCompressor.compress`` on a fresh student."""
    student = build_model(w.model)
    weights = sum(int(np.prod(e.shape)) for e in build_weight_entries(student))
    compressor = ModelCompressor(
        method="milo", bits=w.bits, rank_policy=build_strategy(w.strategy, student.config)
    )
    gc.collect()
    t0 = time.perf_counter()
    model, report = compressor.compress(student)
    t1 = time.perf_counter()
    return (t0, t1), Compressed(
        ppl_ratio=perplexity(model, corpus) / teacher_ppl,
        compression_ratio=report.compression_ratio,
        weights=weights,
        iterations=sum(int(st.get("iterations", 0)) for st in report.layer_stats.values()),
    )


def compress_setup(w: CompressWorkload, seed: int, recorder: SpanRecorder | None = None):
    """Teacher checkpoint plus its seeded evaluation corpus."""
    with _span(recorder, "setup.teacher_build"):
        teacher = build_model(w.model)
    with _span(recorder, "setup.eval_corpus"):
        corpus = teacher_corpus(
            teacher, num_sequences=w.eval_sequences, seq_len=w.eval_seq_len, seed=seed)
    return teacher, corpus


def check_compressed(w: CompressWorkload, seed: int, c: Compressed, pins: dict,
                     result: RunResult, reference: Compressed | None) -> bool:
    pin = pins.get(w.name, {}).get(str(seed))
    expected = (
        (pin["ppl_ratio"], pin["compression_ratio"]) if pin is not None
        else (reference.ppl_ratio, reference.compression_ratio) if reference is not None
        else None
    )
    got = (c.ppl_ratio, c.compression_ratio)
    if expected is not None and got != expected:
        source = "pinned" if pin is not None else "first repetition's"
        result.fail(f"{w.name} seed {seed}: (ppl_ratio, compression_ratio) {got} != {source} {expected}")
        return False
    if not (math.isfinite(c.ppl_ratio) and c.ppl_ratio > 0 and 0 < c.compression_ratio < 1):
        result.fail(f"{w.name} seed {seed}: implausible result {got}")
        return False
    return True


def run_compress(w: CompressWorkload, seed: int, seconds: float, pins: dict) -> RunResult:
    """Untraced run: set up and compress repeatedly for ``seconds``."""
    result = RunResult()
    first: Compressed | None = None
    deadline = time.perf_counter() + seconds
    with HostClock("numpy") as clock:
        times = Timings(clock)
        while len(times.run) < MIN_REPS or time.perf_counter() < deadline:
            gc.collect()
            reset_peak_rss()
            t0 = time.perf_counter()
            teacher, corpus = compress_setup(w, seed)
            times.add(times.setup, t0, time.perf_counter())
            teacher_ppl = perplexity(teacher, corpus)
            attempt = time.perf_counter()
            try:
                (t1, t2), c = compress_once(w, teacher_ppl, corpus)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.fail(f"{w.name} seed {seed}: compression raised")
                result.attempted += 1
                result.failed += 1
                times.add(times.run, attempt, time.perf_counter())
                continue
            times.add(times.run, t1, t2)
            times.peaks.append(peak_rss_mb())
            ok = check_compressed(w, seed, c, pins, result, first)
            result.attempted += 1
            result.failed += 0 if ok else 1
            if first is None:
                first = c
            # Free this repetition's models before the next one is built, so
            # peak RSS is one repetition's footprint.
            del teacher, corpus
        times.more_setups(lambda: compress_setup(w, seed))
    result.notes.append(f"{w.name} seed {seed}: {times.note('compressions')}")
    run_s = times.median(times.run)
    result.metrics = {
        "setup_s": (times.median(times.setup), "s"),
        "run_s": (run_s, "s"),
        "work_per_s": ((first.weights / run_s) if first else 0.0, "1/s"),
        "peak_rss_mb": (statistics.median(times.peaks or [peak_rss_mb()]), "MB"),
        "served_frac": (1.0 - result.failed / result.attempted, "ratio"),
        "quality": ((1.0 / first.ppl_ratio) if first else 0.0, "ratio"),
    }
    return result


def _patch_compress_layers(recorder: SpanRecorder) -> None:
    recorder.patch(ModelCompressor, "compress", "core.compress")
    recorder.patch(CompositeRankPolicy, "assign", "core.rank_assign")
    recorder.patch(MiLoMatrixOptimizer, "optimize", "core.milo_optimize")
    recorder.patch(HQQQuantizer, "quantize", "quant.hqq_quantize")
    recorder.patch(milo_module, "truncated_svd_factors", "core.svd")


def trace_compress(w: CompressWorkload, seed: int, pins: dict, spans_path: str) -> tuple[RunResult, str]:
    """Traced run: per-layer split of one compression and the tracing overhead."""
    result = RunResult()
    teacher, corpus = compress_setup(w, seed)
    teacher_ppl = perplexity(teacher, corpus)
    (b0, b1), c = compress_once(w, teacher_ppl, corpus)
    check_compressed(w, seed, c, pins, result, None)

    recorder = SpanRecorder(run_id=f"{w.name}-seed{seed}")
    t0 = time.perf_counter()
    compress_setup(w, seed, recorder)
    _patch_compress_layers(recorder)
    try:
        (c0, c1), traced = compress_once(w, teacher_ppl, corpus)
    finally:
        recorder.unpatch()
    traced_total = time.perf_counter() - t0
    check_compressed(w, seed, traced, pins, result, c)
    result.attempted = 2
    result.failed = 0 if result.correct else 2
    recorder.write(spans_path)
    result.metrics = {
        "core.rank_assign_s": (recorder.total_s("core.rank_assign"), "s"),
        "core.milo_optimize_calls": (recorder.calls("core.milo_optimize"), "count"),
        "core.milo_optimize_s": (recorder.total_s("core.milo_optimize"), "s"),
        "quant.hqq_quantize_calls": (recorder.calls("quant.hqq_quantize"), "count"),
        "quant.hqq_quantize_s": (recorder.total_s("quant.hqq_quantize"), "s"),
        "core.svd_calls": (recorder.calls("core.svd"), "count"),
        "core.svd_s": (recorder.total_s("core.svd"), "s"),
        "core.milo_iterations": (c.iterations, "count"),
        "core.ppl_ratio": (c.ppl_ratio, "ratio"),
        "core.compression_ratio": (c.compression_ratio, "ratio"),
        "trace.overhead_frac": ((c1 - c0) / (b1 - b0) - 1.0, "ratio"),
        **layer_shares(recorder, traced_total),
    }
    result.notes.append(
        f"{w.name} seed {seed}: 1 untraced + 1 span-traced compression; spans -> {spans_path}"
    )
    return result, layer_tree(f"{w.name} seed {seed}", recorder, traced_total)


def layer_shares(recorder: SpanRecorder, total_s: float) -> dict[str, tuple[float, str]]:
    """Each layer's self time as a share of the traced run's host time."""
    self_s = recorder.layer_self_s()
    return {
        f"{layer}.self_share": (self_s.get(layer, 0.0) / total_s, "ratio") for layer in LAYERS
    }
