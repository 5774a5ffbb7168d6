"""Closed-loop benchmark of the guardres CLI on seeded workloads.

    python3 perfbench/run.py --workload random-certs --seed 1 --seconds 30 --trace 0

One client in one process runs one instance at a time: a generated `.lp`
file passed to `guardres.cli.run` in-process, with stdout captured.  The
generators make blocks of instances from the seed, and whole blocks run
until --seconds of timed wall have passed.  Between blocks, outside the
timed wall, every output is checked against the workload's oracle; a
wrong output fails the run (exit 1).  An instance that raises or exits
3 is counted as failed, not as wrong.

The last stdout line is one JSON object.  With --trace 0 it holds the
end-to-end metrics.  With --trace 1 it holds the per-layer metrics: an
untraced pass of a third of --seconds picks the instances, a second
untraced pass over them gives the warm wall that tracing is compared
with, and a traced pass gives the spans.  METRICS.md defines every
metric.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Cold start: the worked example through the `guardres` console script.
SETUP_SPAWNS = 31
EXAMPLE = "p :- t, not q.\np :- not r.\nq :- not s.\nt.\n"
EXAMPLE_OUTPUT = "{p, q, t}\n"
ENTRY = ("import sys; sys.path.insert(0, sys.argv.pop(1)); sys.argv[0] = 'guardres'; "
         "from guardres.cli import main; main()")

EXIT_CODES = {0, 10, 11, 2, 3}

# End-to-end metrics of an untraced run: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "programs_per_s": ("1/s", "higher"),
    "latency_ms.p50": ("ms", "lower"),
    "latency_ms.p90": ("ms", "lower"),
    "success_ratio": ("1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Outcome:
    """One `cli.run` call; its stdout is kept only as a hash and a size."""

    code: int | None            # None when cli.run raised
    error: str                  # exception type, or ""
    seconds: float
    digest: int                 # hash of stdout, comparable within one process
    output_bytes: int

    @property
    def failed(self) -> bool:
        return self.code is None or self.code == 3 or self.code not in EXIT_CODES


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    wrong: list = field(default_factory=list)   # one line per rejected output
    blocks: int = 0
    wall: float = 0.0


def load_cli():
    """guardres.cli from the checkout's sources, or exit without a result."""
    if not (SRC / "guardres" / "cli.py").is_file():
        raise SystemExit(f"error: no guardres sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from guardres import cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: imported guardres from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv: list, tracer: spans.Tracer | None = None) -> tuple:
    """Run one `cli.run` call; returns its Outcome and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.call(spans.ROOT_SPAN, cli.run, argv) if tracer else cli.run(argv)
    except Exception as exc:  # an escaped exception is a failed instance, not a crash
        error = type(exc).__name__
    seconds = perf_counter() - start
    stdout = out.getvalue()
    return Outcome(code, error, seconds, hash(stdout), len(stdout.encode())), stdout


def timed_pass(cli, workload: str, blocks, inputs: Path, seconds: float,
               tracer: spans.Tracer | None = None) -> Pass:
    """Run whole blocks until `seconds` of timed wall have passed.

    Between blocks, outside the timed wall, the next block's files are
    written and the last block's outputs are checked against the oracle
    and dropped, so the harness holds at most one block of outputs.
    Failed instances are not judged.
    """
    check = oracle.CHECKS[workload]
    result = Pass()
    for block in blocks:
        paths = []
        for instance in block:
            path = inputs / f"{instance.index}.lp"
            path.write_text(instance.text, encoding="utf-8")
            paths.append(str(path))
        calls = []
        start = perf_counter()
        for instance, path in zip(block, paths):
            if tracer is not None:
                tracer.instance = instance.index
            calls.append(invoke(cli, instance.argv(path), tracer))
        result.wall += perf_counter() - start
        result.blocks += 1
        for instance, (outcome, stdout) in zip(block, calls):
            reason = None if outcome.failed else check(instance.expected, outcome.code, stdout)
            if reason:
                result.wrong.append(f"instance {instance.index}: {reason}")
            result.outcomes.append(outcome)
        if result.wall >= seconds:
            break
    return result


def measure_setup(example: Path) -> tuple:
    """Median wall of fresh `guardres solve` processes, after one warm-up."""
    command = [sys.executable, "-c", ENTRY, str(SRC), "solve", str(example)]
    times, wrong = [], None
    for spawn in range(SETUP_SPAWNS + 1):
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        elapsed = perf_counter() - start
        if done.returncode != 0 or done.stdout != EXAMPLE_OUTPUT:
            wrong = f"cold start exited {done.returncode} with {done.stdout!r}"
        if spawn:
            times.append(elapsed)
    return statistics.median(times), wrong


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks; a failure (inf) stays inf."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    if low + 1 == len(ordered):
        return ordered[low]
    a, b = ordered[low], ordered[low + 1]
    return b if math.isinf(b) else a + (b - a) * (position - low)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = load_cli()
    inputs = WORK / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        example = inputs / "example.lp"
        example.write_text(EXAMPLE, encoding="utf-8")
        invoke(cli, ["solve", str(example)])            # warm-up, untimed
        generate = workloads.GENERATORS[workload]
        first = timed_pass(cli, workload, generate(seed), inputs,
                           seconds / 3 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = list(first.wrong)
        if trace:
            warm = timed_pass(cli, workload, islice(generate(seed), first.blocks),
                              inputs, math.inf)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = timed_pass(cli, workload, islice(generate(seed), first.blocks),
                                    inputs, math.inf, tracer)
            wrong += warm.wrong + traced.wrong
            wrong += [f"instance {index}: traced output differs"
                      for index, (plain, seen) in enumerate(zip(first.outcomes,
                                                                traced.outcomes))
                      if (plain.code, plain.error, plain.digest)
                      != (seen.code, seen.error, seen.digest)]
            tracer.write(WORK / f"trace-{workload}-seed{seed}.json",
                         {"workload": workload, "seed": seed})
            outcomes = traced.outcomes
            failed = sum(o.failed for o in outcomes)
            metrics = tracer.metrics(
                traced_wall=traced.wall, untraced_wall=warm.wall,
                output_bytes=sum(o.output_bytes for o in outcomes),
                error_ratio=failed / len(outcomes))
        else:
            outcomes = first.outcomes
            failed = sum(o.failed for o in outcomes)
            completed = len(outcomes) - failed - len(wrong)
            setup_s, setup_wrong = measure_setup(example)
            if setup_wrong:
                wrong.append(setup_wrong)
            latencies = [math.inf if o.failed else o.seconds * 1e3 for o in outcomes]
            values = {
                "setup_s": setup_s,
                "programs_per_s": completed / first.wall,
                "latency_ms.p50": percentile(latencies, 0.5),
                "latency_ms.p90": percentile(latencies, 0.9),
                "success_ratio": 1 - failed / len(outcomes),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            WORK.rmdir()                # only when no trace was written
        except OSError:
            pass

    kinds = Counter(o.error or f"exit {o.code}" for o in outcomes if o.failed)
    print(f"{workload} seed {seed}: {len(outcomes)} instances in {first.blocks} blocks, "
          f"{first.wall:.2f} s timed, {failed} failed"
          + "".join(f", {kind} x{count}" for kind, count in sorted(kinds.items())))
    for line in wrong:
        print(f"WRONG {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:14.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.exit(run(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    main()
