"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the same seed regenerates byte-identical inputs, that the
benchmark's reduct oracle agrees with guardres' brute-force enumeration
on tiny programs, that traced and untraced passes print byte-identical
stdout, that each workload leaves alone the layers it claims to bypass,
and that the metrics printed are the ones BENCHMARK.json declares.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
from itertools import islice

import oracle
import run
import spans
import workloads

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def texts(workload: str, seed: int, blocks: int = 2) -> list:
    stream = workloads.GENERATORS[workload](seed)
    return [instance.text for block in islice(stream, blocks) for instance in block]


def seeded_inputs() -> None:
    for workload in workloads.GENERATORS:
        check(texts(workload, 7) == texts(workload, 7),
              f"{workload}: seed 7 regenerates identical inputs")
        check(texts(workload, 7) != texts(workload, 8),
              f"{workload}: seeds 7 and 8 give different inputs")


def oracle_against_brute_force() -> None:
    from guardres import brute_force_stable, parse_program
    rng = random.Random("selftest")
    for _ in range(200):
        clauses = workloads.random_program(rng, rng.randint(2, 6))
        program = parse_program(workloads.render(clauses))
        brute = {frozenset(program.atoms.name(a) for a in model)
                 for model in brute_force_stable(program)}
        if set(oracle.stable_models(clauses)) != brute:
            check(False, f"oracle disagrees with brute force on {clauses}")
            return
    check(True, "reduct oracle matches brute_force_stable on 200 tiny programs")


def traced_passes(cli, inputs) -> None:
    """Traced output equals untraced output; bypassed layers read zero."""
    bypass = {
        "random-certs": {},
        "choice-completion": {"solver.candidates": 0},
        "ladder-supports": {"solver.candidates": 0, "sat.dpll.calls": 0},
    }
    for workload, zeros in bypass.items():
        blocks = workloads.GENERATORS[workload]
        first = run.timed_pass(cli, workload, blocks(3), inputs, 1.0)
        check(not first.wrong, f"{workload}: {len(first.outcomes)} outputs pass the oracle"
                               + "".join(f"; {line}" for line in first.wrong[:1]))
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run.timed_pass(cli, workload, islice(blocks(3), first.blocks),
                                    inputs, math.inf, tracer)
        same = [(o.code, o.error, o.digest) for o in first.outcomes] == \
            [(o.code, o.error, o.digest) for o in traced.outcomes]
        check(same, f"{workload}: traced and untraced stdout are byte-identical")
        metrics = tracer.metrics(traced_wall=traced.wall, untraced_wall=first.wall,
                                 output_bytes=0, error_ratio=0.0)
        for name, value in zeros.items():
            check(metrics[name][0] == value, f"{workload}: {name} = {metrics[name][0]}")
        if workload == "random-certs":
            check(metrics["solver.candidates"][0] > 0,
                  f"{workload}: solver.candidates = {metrics['solver.candidates'][0]}")
        coverage = metrics["trace.coverage_ratio"][0]
        check(coverage > 0.95, f"{workload}: layer self times cover {coverage:.1%} "
                               "of the traced wall")


def declared_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    check(end_to_end == run.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check(per_layer == spans.LAYER_METRICS, "per-layer metrics match BENCHMARK.json")
    check(sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.GENERATORS),
          "workloads match BENCHMARK.json")


def main() -> None:
    cli = run.load_cli()
    inputs = run.WORK / f"selftest-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        seeded_inputs()
        oracle_against_brute_force()
        traced_passes(cli, inputs)
        declared_metrics()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
