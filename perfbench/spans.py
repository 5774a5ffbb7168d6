"""Per-layer tracing of guardres, installed from outside the package.

The package imports layer functions by name (`from .sat import
enumerate_models`), so a timing wrapper is set in every module namespace
that holds a traced name, and removed again afterwards.  Generators are
timed per `next()`.  Each span has a name, start, end, parent span and
instance id; a layer's self time is its spans' time minus the time of
their child spans.  Every span is counted per instance, but only the
first KEEP spans of each name per instance are stored: per-candidate
spans reach 10^5 on one program and would distort the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  A span name may be set in several
# modules; each namespace that calls a function gets its own wrapper.
TARGETS = (
    ("guardres.cli", "parse_program", "parse"),
    ("guardres.cli", "solve_stable", "solver.solve"),
    ("guardres.cli", "saturate_supports", "guarded.saturate"),
    ("guardres.cli", "build_completion", "completion.build"),
    ("guardres.cli", "models_of_completion", "completion.models"),
    ("guardres.cli", "format_proof", "cli.format"),
    ("guardres.cli", "format_certificate", "cli.format"),
    ("guardres.solver", "candidate_theories", "solver.product"),
    ("guardres.solver", "check_candidate", "solver.check"),
    ("guardres.solver", "enumerate_models", "sat.enumerate"),
    ("guardres.solver", "is_stable", "semantics.recheck"),
    ("guardres.solver", "saturate_supports", "guarded.saturate"),
    ("guardres.solver", "enumerate_supports", "guarded.enumerate"),
    ("guardres.solver", "verify_proof", "guarded.verify"),
    ("guardres.completion", "saturate_supports", "guarded.saturate"),
    ("guardres.completion", "enumerate_models", "sat.enumerate"),
    ("guardres.completion", "equation_to_cnf", "completion.equation"),
    ("guardres.guarded", "enumerate_supports", "guarded.enumerate"),
    ("guardres.guarded", "SupportTable.certificate", "guarded.certificate"),
    ("guardres.sat", "dpll_solve", "sat.dpll"),
    ("guardres.sat", "CnfTheory.__init__", "sat.cnf_build"),
)
ROOT_SPAN = "cli.run"

# Per-layer metrics of the traced pass: name -> (unit, better).
LAYER_METRICS = {
    "parse.calls": ("count", "lower"),
    "parse.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "solver.candidates": ("count", "lower"),
    "solver.candidate_hit_ratio": ("1", "higher"),
    "solver.duplicate_ratio": ("1", "lower"),
    "solver.product.self_s": ("s", "lower"),
    "solver.check.self_s": ("s", "lower"),
    "solver.solve.self_s": ("s", "lower"),
    "sat.cnf_build.calls": ("count", "lower"),
    "sat.cnf_build.self_s": ("s", "lower"),
    "sat.cnf_clauses": ("count", "lower"),
    "sat.dpll.calls": ("count", "lower"),
    "sat.dpll.self_s": ("s", "lower"),
    "sat.dpll_hit_ratio": ("1", "higher"),
    "sat.enumerate.self_s": ("s", "lower"),
    "sat.models": ("count", "lower"),
    "guarded.saturate.self_s": ("s", "lower"),
    "guarded.supports_stored": ("count", "lower"),
    "guarded.enumerate.self_s": ("s", "lower"),
    "guarded.proofs_yielded": ("count", "lower"),
    "guarded.proofs_per_support": ("1", "lower"),
    "guarded.certificate.calls": ("count", "lower"),
    "guarded.certificate.self_s": ("s", "lower"),
    "guarded.verify.calls": ("count", "lower"),
    "guarded.verify.self_s": ("s", "lower"),
    "semantics.recheck.calls": ("count", "lower"),
    "semantics.recheck.self_s": ("s", "lower"),
    "completion.build.self_s": ("s", "lower"),
    "completion.models.self_s": ("s", "lower"),
    "completion.equation.self_s": ("s", "lower"),
    "completion.equation_clauses": ("count", "lower"),
    "error_ratio": ("1", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "trace.coverage_ratio": ("1", "higher"),
}


class Tracer:
    KEEP = 8

    def __init__(self):
        self.instance = None
        self.stack: list = []           # open spans: [id, name, start, child seconds]
        self.spans: list = []           # stored: (id, name, start, end, parent, instance)
        self.per_instance: dict = {}    # instance -> name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.opened = 0
        self._hooks = {
            "solver.check": self._count_check,
            "solver.solve": self._count_solve,
            "sat.enumerate": self._count_models,
            "sat.cnf_build": self._count_cnf,
            "guarded.saturate": self._count_table,
            "guarded.enumerate": self._count_proof,
            "completion.equation": self._count_equation,
        }

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self.opened, name, perf_counter(), 0.0]
        self.opened += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        elapsed = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += elapsed
        totals = self.per_instance.setdefault(self.instance, {}).setdefault(
            name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - child
        if totals[0] <= self.KEEP:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.instance))

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` as one span; the benchmark's root span per instance."""
        return self._wrap_call(name, fn)(*args)

    def _wrap_call(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame)
                    if hook is not None:
                        hook(args, item)
                    yield item
            finally:
                inner.close()
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module, attribute, name in TARGETS:
                owner = importlib.import_module(module)
                *path, attr = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(original)
                        else self._wrap_call)
                setattr(owner, attr, wrap(name, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- counters read at layer boundaries ----------------------------------

    def _count_check(self, args, models) -> None:
        self.counts["candidates"] += 1
        self.counts["candidate_hits"] += bool(models)
        self.counts["candidate_models"] += len(models)

    def _count_solve(self, args, pairs) -> None:
        self.counts["models_emitted"] += len(pairs)

    def _count_models(self, args, models) -> None:
        self.counts["sat_models"] += len(models)

    def _count_cnf(self, args, _) -> None:
        self.peaks["cnf_clauses"] = max(self.peaks["cnf_clauses"], len(args[0].clauses))

    def _count_table(self, args, table) -> None:
        stored = sum(len(chain) for _, chain in table.items())
        self.peaks["supports_stored"] = max(self.peaks["supports_stored"], stored)

    def _count_proof(self, args, item) -> None:
        self.counts["proofs"] += 1

    def _count_equation(self, args, clauses) -> None:
        self.counts["equation_clauses"] += len(clauses)

    # -- results -------------------------------------------------------------

    def _total(self, name: str, column: int):
        return sum(by_name[name][column] for by_name in self.per_instance.values()
                   if name in by_name)

    def calls(self, name: str) -> int:
        return self._total(name, 0)

    def self_s(self, name: str) -> float:
        return self._total(name, 2)

    def metrics(self, *, traced_wall: float, untraced_wall: float,
                output_bytes: int, error_ratio: float) -> dict:
        """Every LAYER_METRICS value for the pass traced by this tracer."""
        counts, calls, self_s = self.counts, self.calls, self.self_s

        def ratio(part, whole):
            return part / whole if whole else 0.0

        names = {name for by_name in self.per_instance.values() for name in by_name}
        certified = calls("guarded.certificate") + calls("guarded.verify")
        values = {
            "parse.calls": calls("parse"),
            "parse.self_s": self_s("parse"),
            "cli.self_s": self_s(ROOT_SPAN) + self_s("cli.format"),
            "cli.output_bytes": output_bytes,
            "solver.candidates": counts["candidates"],
            "solver.candidate_hit_ratio": ratio(counts["candidate_hits"], counts["candidates"]),
            "solver.duplicate_ratio": ratio(
                counts["candidate_models"] - counts["models_emitted"],
                counts["candidate_models"]),
            "solver.product.self_s": self_s("solver.product"),
            "solver.check.self_s": self_s("solver.check"),
            "solver.solve.self_s": self_s("solver.solve"),
            "sat.cnf_build.calls": calls("sat.cnf_build"),
            "sat.cnf_build.self_s": self_s("sat.cnf_build"),
            "sat.cnf_clauses": self.peaks["cnf_clauses"],
            "sat.dpll.calls": calls("sat.dpll"),
            "sat.dpll.self_s": self_s("sat.dpll"),
            "sat.dpll_hit_ratio": ratio(counts["sat_models"], calls("sat.dpll")),
            "sat.enumerate.self_s": self_s("sat.enumerate"),
            "sat.models": counts["sat_models"],
            "guarded.saturate.self_s": self_s("guarded.saturate"),
            "guarded.supports_stored": self.peaks["supports_stored"],
            "guarded.enumerate.self_s": self_s("guarded.enumerate"),
            "guarded.proofs_yielded": counts["proofs"],
            "guarded.proofs_per_support": ratio(counts["proofs"], certified),
            "guarded.certificate.calls": calls("guarded.certificate"),
            "guarded.certificate.self_s": self_s("guarded.certificate"),
            "guarded.verify.calls": calls("guarded.verify"),
            "guarded.verify.self_s": self_s("guarded.verify"),
            "semantics.recheck.calls": calls("semantics.recheck"),
            "semantics.recheck.self_s": self_s("semantics.recheck"),
            "completion.build.self_s": self_s("completion.build"),
            "completion.models.self_s": self_s("completion.models"),
            "completion.equation.self_s": self_s("completion.equation"),
            "completion.equation_clauses": counts["equation_clauses"],
            "error_ratio": error_ratio,
            "trace.spans": self.opened,
            "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
            "trace.coverage_ratio": ratio(sum(self_s(name) for name in names), traced_wall),
        }
        return {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}

    def write(self, path, header: dict) -> None:
        """Stored spans and per-instance counters, as one JSON document."""
        document = dict(header, span_fields=["id", "name", "start", "end", "parent",
                                             "instance"],
                        spans=self.spans,
                        per_instance={str(k): v for k, v in self.per_instance.items()})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
