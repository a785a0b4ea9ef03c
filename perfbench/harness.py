"""Run loop, spans and output checks shared by every workload.

A run is a closed loop with one caller: set-up repeated at least
SETUP_REPS times and until SETUP_MIN_S have passed, then passes over the
workload's operations until the time budget is spent.
Each pass records the wall time of the library calls it makes (checks run
outside those intervals), the work counters of each layer, and the values
its checks looked at, so passes and runs can be compared for identical
outputs.

Spans are recorded by the benchmark around its own calls into the library;
the library itself is not instrumented.  They are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

SETUP_REPS = 3
SETUP_MIN_S = 1.0  # a cheap set-up is repeated more often, so its median is steady


# -- spans ----------------------------------------------------------------------


class Tracer:
    """Nested spans (name, start, end, parent) tagged with the unit they ran in."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, unit: str, **attrs):
        rec = {
            "name": name,
            "unit": unit,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def table(self) -> list[dict]:
        """Spans aggregated by (name, parent name): calls, total and self seconds."""
        selfs = self.self_times()
        rows: dict[tuple, dict] = {}
        for s, self_s in zip(self.spans, selfs):
            parent = self.spans[s["parent"]]["name"] if s["parent"] is not None else None
            row = rows.setdefault(
                (s["name"], parent),
                {"name": s["name"], "parent": parent, "calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += self_s
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def span_cost_s(self, reps: int = 2000, batches: int = 5) -> float:
        """Median time one span adds to the call it wraps, measured on empty spans."""
        probe = Tracer()
        costs = []
        for _ in range(batches):
            t0 = perf_counter()
            for _ in range(reps):
                with probe.span("probe", "probe"):
                    pass
            costs.append((perf_counter() - t0) / reps)
        return median(costs)

    def self_by_name(self, unit: str) -> Counter:
        out: Counter = Counter()
        for s, self_s in zip(self.spans, self.self_times()):
            if s["unit"] == unit:
                out[s["name"]] += self_s
        return out


# -- checks -------------------------------------------------------------------------


class Abort(Exception):
    """Raised after a failed check that leaves nothing further to run in this pass."""


class Checker:
    """Counts checks attempted and failed; a failure is reported at once on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(name, detail)
        return ok

    def equal(self, name: str, got, want) -> bool:
        return self.check(name, got == want, f"got {got!r}, want {want!r}")

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        msg = f"{name}: {detail}" if detail else name
        self.failures.append(msg)
        print(f"CHECK FAILED {msg}", file=sys.stderr, flush=True)


# -- units of work --------------------------------------------------------------------


@dataclass
class Unit:
    """One set-up or one pass: timed library calls, counters and checked outputs."""

    label: str
    tracer: Tracer | None
    op_s: float = 0.0
    traced_ops: int = 0
    counts: Counter = field(default_factory=Counter)
    rate_work: Counter = field(default_factory=Counter)
    rate_time: Counter = field(default_factory=Counter)
    outputs: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    replaying: bool = False

    @contextmanager
    def op(self, name: str, rate: str | None = None, work: int = 0):
        """Time one library call; its duration counts toward the pass wall time."""
        t0 = perf_counter()
        with self.span(name):
            yield
        if self.replaying:
            return
        dt = perf_counter() - t0
        self.op_s += dt
        self.traced_ops += self.tracer is not None
        if rate:
            self.rate_work[rate] += work
            self.rate_time[rate] += dt

    @contextmanager
    def replay(self, name: str):
        """Traced-only calls that repeat work for its spans; they add nothing to op_s."""
        outer, self.replaying = self.replaying, True
        try:
            with self.span(name, replayed=True):
                yield
        finally:
            self.replaying = outer

    def span(self, name: str, **attrs):
        """A span that is recorded only when tracing; it adds nothing to op_s."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, self.label, **attrs)

    def count(self, name: str, value: int | float) -> None:
        self.counts[name] += value

    def output(self, key: str, value) -> None:
        self.outputs[key] = value

    def fingerprint(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Context:
    """What a workload needs besides its own parameters."""

    seed: int
    params: dict
    pins: dict
    checker: Checker
    workdir: str
    src: str


@dataclass
class RunResult:
    workload: str
    trace: bool
    setup_s: list[float]
    passes: list[Unit]
    setups: list[Unit]
    tracer: Tracer | None
    checker: Checker
    peak_rss_mb: float
    error: str | None = None
    span_cost_s: float = 0.0

    @property
    def untraced(self) -> list[Unit]:
        return [p for p in self.passes if p.tracer is None]

    @property
    def traced(self) -> list[Unit]:
        return [p for p in self.passes if p.tracer is not None]

    def fingerprint(self) -> str:
        """Of the last pass, which is traced in a traced run; every pass is checked equal to the first."""
        return self.passes[-1].fingerprint() if self.passes else ""

    def rates(self, units: list[Unit]) -> dict[str, float]:
        """Median over passes of work per second of each rate the workload records."""
        names = sorted({r for u in units for r in u.rate_work})
        return {
            r: median(u.rate_work[r] / u.rate_time[r] for u in units if u.rate_time[r] > 0)
            for r in names
        }


def run_workload(workload, ctx: Context, seconds: float, trace: bool) -> RunResult:
    """Set up SETUP_REPS times or more, then run passes until `seconds` have passed.

    With tracing on, the first pass runs untraced as the reference for the
    tracing overhead and for output identity; every later pass is traced.
    """
    tracer = Tracer() if trace else None
    result = RunResult(workload.NAME, trace, [], [], [], tracer, ctx.checker, 0.0)
    try:
        i, setup_end = 0, perf_counter() + SETUP_MIN_S
        while i < SETUP_REPS or perf_counter() < setup_end:
            inputs = None  # release the previous set-up before building the next
            unit = Unit(f"setup{i}", tracer)
            i += 1
            t0 = perf_counter()
            with unit.span("setup"):
                inputs = workload.setup(ctx, unit)
            result.setup_s.append(perf_counter() - t0)
            result.setups.append(unit)
        deadline = perf_counter() + seconds
        while True:
            traced = trace and len(result.passes) > 0
            unit = Unit(f"pass{len(result.passes)}", tracer if traced else None)
            with unit.span("pass"):
                workload.run_pass(ctx, unit, inputs, first=not result.passes)
            if result.passes:
                ctx.checker.equal(
                    f"{unit.label} outputs identical to pass0"
                    + (" (traced vs untraced)" if traced else ""),
                    unit.fingerprint(),
                    result.passes[0].fingerprint(),
                )
            result.passes.append(unit)
            if perf_counter() >= deadline and (not trace or len(result.passes) >= 2):
                break
    except Abort as exc:
        result.error = str(exc)  # the failed check is already counted
    except Exception:  # noqa: BLE001 - a crashed operation is a failed check
        result.error = traceback.format_exc()
        ctx.checker.fail("operation raised", result.error)
    result.peak_rss_mb = workload.peak_rss_mb()
    if tracer is not None:
        result.span_cost_s = tracer.span_cost_s()
    return result
