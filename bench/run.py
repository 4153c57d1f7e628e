#!/usr/bin/env python3
"""One-command benchmark of spphbt.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Imports spphbt from ./src only, and exits
with code 2 if it is missing.  Set-up runs in fresh child processes and is
timed there; passes run in this process through `spphbt.cli.main` until
--seconds have elapsed after one warm-up pass.  Every pass's outputs are
checked against the oracles in `oracles.py`.  The last line of standard
output is one JSON object: with --trace 0 it holds the end-to-end metrics,
with --trace 1 the per-module metrics of a traced run.  `--workload all`
runs every workload in its own process and merges their results.
"""

import os

# BLAS held to one thread, in this process and in every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """spphbt.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "spphbt" / "__init__.py").is_file():
        _fail(f"no spphbt package under {SRC}")
    sys.path.insert(0, str(SRC))
    from spphbt import cli
    if Path(cli.__file__).resolve().parent != SRC / "spphbt":
        _fail(f"imported spphbt from {cli.__file__}, not from {SRC}")
    return cli


def setup_inputs(workload, seed: int, inputs: Path) -> None:
    """Set-up proper, run in a fresh process: import, write and resolve the
    scenario, and simulate the stored tag file where the workload needs one."""
    cli = import_cli()
    import yaml
    from spphbt.scenarios import validate_config

    scenario_path = inputs / "scenario.yaml"
    scenario_path.write_text(yaml.safe_dump(workload.scenario(seed), sort_keys=False))
    scenario, diagnostics = validate_config(str(scenario_path))
    if scenario is None:
        _fail(f"generated scenario is invalid: {diagnostics}")
    if workload.stored_tags:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--scenario", str(scenario_path),
                             "--out", str(inputs)])
        if code != 0:
            _fail(f"set-up simulate exited {code}")


def timed_setups(args, inputs: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up exited {proc.returncode}")
    return times


def run_pass(cli, operations) -> int:
    """Run one pass's CLI calls; returns the number that failed."""
    failed = 0
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in operations:
            try:
                code = cli.main(argv)
            except Exception:  # an operation that crashes counts as failed
                traceback.print_exc()
                code = -1
            failed += code != 0
    return failed


def run_workload(args, cli) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = OUT / workload.name
    out = inputs / "pass"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    setup_s = timed_setups(args, inputs, 1 if args.trace else SETUP_REPEATS)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(time.perf_counter)
        tracing.install(tracer)
        tracemalloc.start()

    operations = workload.operations(inputs / "scenario.yaml", inputs, out)
    pass_s, problems = [], []
    attempted = failed = 0
    deadline = None
    while deadline is None or time.perf_counter() < deadline \
            or len(pass_s) < MIN_TIMED_PASSES:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if tracer is not None:
            tracer.pass_index = attempted // len(operations)
        t0 = time.perf_counter()
        pass_failed = run_pass(cli, operations)
        elapsed = time.perf_counter() - t0
        attempted += len(operations)
        failed += pass_failed
        if pass_failed == 0:
            problems += [f"pass {attempted // len(operations)}: {p}"
                         for p in workload.check(out, inputs)]
        if deadline is None:  # the warm-up pass is checked but not timed
            deadline = time.perf_counter() + args.seconds
        else:
            pass_s.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    q1, median, q3 = statistics.quantiles(pass_s, n=4)
    print(f"{workload.name}: {len(pass_s)} timed passes, pass_s median {median:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}); set-up {', '.join(f'{t:.3f}' for t in setup_s)} s",
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pass_s": (median, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_pass = [tracing.layer_metrics([s for s in tracer.spans if s.pass_index == i])
                    for i in range(1, len(pass_s) + 1)]
        metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in tracing.LAYER_UNITS.items()}
        metrics["trace.pass_s"] = (median, "s")
        (inputs / "trace.json").write_text(json.dumps(tracer.to_records()))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=3 * CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"{name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        setup_inputs(WORKLOADS[args.workload], args.seed, OUT / args.workload)
        return 0
    cli = import_cli()  # fail before any work when this checkout has no spphbt
    result = run_all(args) if args.workload == "all" else run_workload(args, cli)
    for name, entry in result["metrics"].items():
        print(f"  {name:<42} {entry['value']:.6g} {entry['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
