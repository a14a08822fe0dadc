"""Repo benchmark: simulator speed, modelled serving outcome and MiLo compression.

One workload per process (so ``peak_rss_mb`` is the workload's own)::

    python3 perfbench/run.py --workload decode_steady --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` (at least
two measured units) and ``--trace 1`` makes the separate traced run that
splits host time across the program's layers.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones declared
in ``BENCHMARK.json``.

Every metric of every workload, with units, and each workload's per-layer
self-time tree, each workload in fresh processes::

    python3 perfbench/run.py --report --seed 0

Regenerate the correctness pins (report digests, compression ratios) for a
range of seeds after a deliberate change of simulated behaviour::

    python3 perfbench/run.py --write-pins --seeds 0-19
"""

from __future__ import annotations

import os
import sys

# Load generation is one single-threaded process: pin the BLAS/OpenMP pools
# before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# str hashing is salted per process, which changes the order of allocations
# and so the peak RSS (by up to 10% on compress_milo); a fixed salt makes it
# repeat.  The salt is read at interpreter start, hence the re-exec.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}; nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def declared(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def finish_metrics(result, names: dict[str, str], trace: bool) -> None:
    """Match the run's metrics to the declared list exactly.

    A per-layer metric whose layer the workload does not call reads 0.  An
    undeclared metric, a unit mismatch or a missing end-to-end metric is a
    bug in the benchmark and raises.
    """
    for name, (_, unit) in result.metrics.items():
        if name not in names:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        if names[name] != unit:
            raise ValueError(f"metric {name!r}: unit {unit!r} != declared {names[name]!r}")
    missing = [name for name in names if name not in result.metrics]
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    result.metrics = {
        name: result.metrics.get(name, (0, unit)) for name, unit in names.items()
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    pins = workloads.load_pins(str(PINS_PATH))
    serving = isinstance(w, workloads.ServingWorkload)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str((OUT_DIR / f"{w.name}-seed{args.seed}.spans.jsonl").relative_to(ROOT))
        tracer = workloads.trace_serving if serving else workloads.trace_compress
        result, tree = tracer(w, args.seed, pins, spans_path)
        print(tree)
    else:
        runner = workloads.run_serving if serving else workloads.run_compress
        result = runner(w, args.seed, args.seconds, pins)
    finish_metrics(result, declared(spec, bool(args.trace)), bool(args.trace))
    for note in result.notes:
        print(note)
    print(result.as_json())
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def report_all(args: argparse.Namespace, spec: dict) -> int:
    """Every end-to-end metric by name and unit, then each workload's tree."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        e2e_notes, e2e = _child(workload, args.seed, seconds, 0)
        trace_lines, traced = _child(workload, args.seed, seconds, 1)
        failed |= not (e2e["correct"] and traced["correct"])
        print(f"== {workload} (seed {args.seed}) correct={e2e['correct']} "
              f"attempted={e2e['attempted']} failed={e2e['failed']}")
        for name, m in e2e["metrics"].items():
            print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")
        for line in e2e_notes:
            print(f"  {line}")
        print("  per-layer (traced run; zero metrics omitted):")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {name:<36} {m['value']:>16.6g} {m['unit']}")
        for line in trace_lines:
            print(f"  {line}")
    return 1 if failed else 0


def write_pins(args: argparse.Namespace) -> int:
    import workloads

    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    pins: dict[str, dict] = {}
    for name, w in workloads.WORKLOADS.items():
        pins[name] = {}
        for seed in seeds:
            if isinstance(w, workloads.ServingWorkload):
                requests = w.requests(seed)
                report, _, digest = workloads.replay(w.engine(), requests)
                if report.completed + report.rejected + report.stranded != len(requests):
                    raise SystemExit(f"{name} seed {seed}: request conservation broken")
                pins[name][str(seed)] = digest
            else:
                teacher, corpus = workloads.compress_setup(w, seed)
                _, c = workloads.compress_once(
                    w, workloads.perplexity(teacher, corpus), corpus)
                pins[name][str(seed)] = {
                    "ppl_ratio": c.ppl_ratio, "compression_ratio": c.compression_ratio}
            print(f"{name} seed {seed}: {pins[name][str(seed)]}", flush=True)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args(argv)
    import_program()
    if args.report:
        return report_all(args, spec)
    if args.write_pins:
        return write_pins(args)
    if args.workload is None:
        parser.error("--workload is required (or --report / --write-pins)")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
