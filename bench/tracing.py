"""Spans and per-layer metrics, recorded from outside the program.

A layer is timed by replacing one of its module's public functions, at
the name its caller looks up, with a wrapper that records a span: name
(``module.function``), start, end, parent span and the id of the run it
belongs to ("setup-<k>", "setup-train" or "job-<k>"). Controllers are timed through a
proxy around their ``on_epoch``. Spans stay in memory and are written
out once, when the benchmark ends. Self times are derived from the
spans: a span's duration minus the durations of its direct children.

Untraced jobs install only the ``Probe``. It checks every emulator run
the benchmark makes, whichever module called it, and keeps the check's
time out of the job's wall time. On entry to and return from each
target except ``HOT`` it reads the clock and times a short reference
loop, so that each piece of a job between two such marks can be scaled
by how fast the host ran at its ends (``hostspeed.scaled_seconds``).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from mdi import heatmap, linksim, markov, pipeline, runtime, trace, trainer
from mdi.controllers import Controller

import checks
from hostspeed import reference_ns

RUN_SPAN = "linksim.run_simulation"
CHECK_SPAN = "bench.check"
# Called thousands of times per job: untraced jobs do not mark it.
HOT = {"runtime.invert_w_hat"}

# (span name, module, attribute). mdi.pipeline imports its helpers by
# name, so the training path is wrapped in mdi.pipeline's namespace; the
# benchmark itself calls every other function through its own module.
TARGETS = (
    ("trace.gen_rapidly_changing", trace, "gen_rapidly_changing"),
    (RUN_SPAN, linksim, "run_simulation"),
    (RUN_SPAN, pipeline, "run_simulation"),
    ("linksim.write_packet_csv", linksim, "write_packet_csv"),
    ("linksim.read_packet_csv", linksim, "read_packet_csv"),
    ("linksim.write_epoch_csv", linksim, "write_epoch_csv"),
    ("linksim.read_epoch_csv", linksim, "read_epoch_csv"),
    ("runtime.invert_w_hat", runtime, "invert_w_hat"),
    ("quantizer.fit_config", pipeline, "fit_config"),
    ("trainer.derive_states", pipeline, "derive_states"),
    ("trainer.count_transitions", pipeline, "count_transitions"),
    ("trainer.save_model", trainer, "save_model"),
    ("trainer.load_model", trainer, "load_model"),
    ("pipeline.train_on_traces", pipeline, "train_on_traces"),
    ("pipeline.run_and_derive", pipeline, "run_and_derive"),
    ("markov.to_stochastic", markov, "to_stochastic"),
    ("markov.stationary", markov, "stationary"),
    ("markov.mixing_times", markov, "mixing_times"),
    ("markov.empirical_distribution", markov, "empirical_distribution"),
    ("markov.kl_divergence", markov, "kl_divergence"),
    ("heatmap.heatmap_export", heatmap, "heatmap_export"),
)

# Per-layer metric -> (unit, span, what to read off that span per job).
SPAN_METRICS = {
    "linksim.run_s": ("s", RUN_SPAN, "total"),
    "linksim.self_s": ("s", RUN_SPAN, "self"),
    "linksim.packet_csv_write_s": ("s", "linksim.write_packet_csv", "total"),
    "linksim.packet_csv_read_s": ("s", "linksim.read_packet_csv", "total"),
    "linksim.epoch_csv_write_s": ("s", "linksim.write_epoch_csv", "total"),
    "linksim.epoch_csv_read_s": ("s", "linksim.read_epoch_csv", "total"),
    "controllers.on_epoch_s": ("s", "controllers.on_epoch", "total"),
    "controllers.calls": ("count", "controllers.on_epoch", "calls"),
    "runtime.on_epoch_s": ("s", "runtime.on_epoch", "total"),
    "runtime.calls": ("count", "runtime.on_epoch", "calls"),
    "runtime.invert_s": ("s", "runtime.invert_w_hat", "total"),
    "runtime.invert_calls": ("count", "runtime.invert_w_hat", "calls"),
    "quantizer.fit_s": ("s", "quantizer.fit_config", "total"),
    "trainer.derive_s": ("s", "trainer.derive_states", "total"),
    "trainer.count_s": ("s", "trainer.count_transitions", "total"),
    "pipeline.train_s": ("s", "pipeline.train_on_traces", "total"),
    "trainer.model_save_s": ("s", "trainer.save_model", "total"),
    "trainer.model_load_s": ("s", "trainer.load_model", "total"),
    "markov.to_stochastic_s": ("s", "markov.to_stochastic", "total"),
    "markov.stationary_s": ("s", "markov.stationary", "total"),
    "markov.mixing_s": ("s", "markov.mixing_times", "total"),
    "markov.empirical_s": ("s", "markov.empirical_distribution", "total"),
    "markov.kl_s": ("s", "markov.kl_divergence", "total"),
    "heatmap.export_s": ("s", "heatmap.heatmap_export", "total"),
}

# Metrics computed from spans and job facts; value None means a span
# they need could not be recorded.
DERIVED_METRICS = {
    "trace.gen_s": ("s", ["trace.gen_rapidly_changing"]),
    "trace.opps": ("count", ["trace.gen_rapidly_changing"]),
    "linksim.pkts": ("count", []),
    "linksim.ns_per_pkt": ("ns", [RUN_SPAN]),
    "linksim.drop_ratio": ("ratio", []),
    "linksim.run_p50_s": ("s", [RUN_SPAN]),
    "linksim.run_p80_s": ("s", [RUN_SPAN]),
    "linksim.run_samples": ("count", [RUN_SPAN]),
    "linksim.csv_mb": ("MB", []),
    "runtime.exact_ratio": ("ratio", []),
    "runtime.marginal": ("count", []),
    "runtime.fallback": ("count", []),
    "runtime.range_exit": ("count", []),
    "trainer.transitions": ("count", []),
    "trainer.empty_row_fraction": ("ratio", []),
    "pipeline.self_s": ("s", ["pipeline.train_on_traces", "pipeline.run_and_derive"]),
    "markov.t_mix_1e-3": ("steps", []),
    "bench.trace_overhead_s": ("s", []),
    "bench.unattributed_s": ("s", []),
}

PER_LAYER = {
    name: unit
    for name, (unit, *_rest) in {**SPAN_METRICS, **DERIVED_METRICS}.items()
}


class Tracer:
    """In-memory span store; one per benchmark process."""

    def __init__(self) -> None:
        # [name, parent index or -1, run id, start ns, end ns]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.run = "setup-0"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.run, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][4] = time.perf_counter_ns()

    def add(self, key: str, value: float) -> None:
        self.counts[(self.run, key)] += value

    def write(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trun\tname\tstart_ns\tend_ns\n")
            for sid, (name, parent, run, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{run}\t{name}\t{start - t0}\t{end - t0}\n")


class Probe:
    """Checks every emulator result, counts what the runs simulated and
    marks the calls of an untraced job on a clock that stops during checks
    and reference loops."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.check_ns = 0
        self.link_ms = 0
        self.pkts = 0
        self.dropped = 0
        self.ref_total_ns = 0
        # (clock ns, reference loop ns) per entry and return; None
        # outside untraced phases.
        self.marks: list[tuple[int, int]] | None = None

    def clock(self) -> int:
        return time.perf_counter_ns() - self.check_ns - self.ref_total_ns

    def mark(self) -> None:
        if self.marks is not None:
            t0 = time.perf_counter_ns()
            self.marks.append((t0 - self.check_ns - self.ref_total_ns, reference_ns()))
            self.ref_total_ns += time.perf_counter_ns() - t0

    def after_run(self, args, kwargs, result) -> None:
        t0 = time.perf_counter_ns()
        params = kwargs["params"] if "params" in kwargs else args[0]
        self.ops.record("emulator run", checks.sim_problems(params, result))
        self.link_ms += params.duration_ms
        self.pkts += result.sent_pkts
        self.dropped += result.dropped_pkts
        self.check_ns += time.perf_counter_ns() - t0


def _wrap(fn, name: str, tracer: Tracer | None, probe: Probe | None):
    if tracer is None:

        def marked(*args, **kwargs):
            probe.mark()
            result = fn(*args, **kwargs)
            probe.mark()
            if name == RUN_SPAN:
                probe.after_run(args, kwargs, result)
            return result

        return marked

    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if name == "trace.gen_rapidly_changing":
            tracer.add("trace.opps", len(result))
        if probe is not None:
            cid = tracer.open(CHECK_SPAN)
            try:
                probe.after_run(args, kwargs, result)
            finally:
                tracer.close(cid)
        return result

    return traced


def install(probe: Probe, tracer: Tracer | None = None, missing: set | None = None):
    """Patch the targets (untraced: all but ``HOT``); returns an undo.

    A target that no longer exists is added to ``missing`` so that the
    metrics built on it read as missing rather than as zero.
    """
    saved = []
    for name, module, attr in TARGETS:
        if tracer is None and name in HOT:
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            if missing is not None:
                missing.add(name)
            continue
        saved.append((module, attr, fn))
        uses_probe = tracer is None or name == RUN_SPAN
        setattr(module, attr, _wrap(fn, name, tracer, probe if uses_probe else None))

    def undo() -> None:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return undo


class TimedController(Controller):
    """Proxy that records a span around the inner controller's on_epoch."""

    def __init__(self, inner: Controller, span: str, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._span = span
        self._tracer = tracer

    def on_epoch(self, feedback):
        if feedback.acked_pkts > 0:
            self._tracer.add(self._span + ".delay_epochs", 1)
        sid = self._tracer.open(self._span)
        try:
            return self.inner.on_epoch(feedback)
        finally:
            self._tracer.close(sid)


def timed(controller: Controller, span: str, tracer: Tracer | None) -> Controller:
    return controller if tracer is None else TimedController(controller, span, tracer)


def _span_sums(spans: list[list], run: str) -> tuple[dict, dict, dict, list]:
    """Total duration less nested checks, self time and call count per
    span name (seconds) over the spans of one run, plus each emulator
    run's duration."""
    ids = [i for i, s in enumerate(spans) if s[2] == run]
    child_ns = defaultdict(int)
    # Checks of emulator results run inside training; keep their time
    # out of every span that encloses them.
    check_ns = defaultdict(int)
    for i in ids:
        parent = spans[i][1]
        if parent >= 0:
            child_ns[parent] += spans[i][4] - spans[i][3]
        if spans[i][0] == CHECK_SPAN:
            while parent >= 0:
                check_ns[parent] += spans[i][4] - spans[i][3]
                parent = spans[parent][1]
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    run_durations = []
    for i in ids:
        name, _parent, _run, start, end = spans[i]
        total[name] += (end - start - check_ns[i]) / 1e9
        self_s[name] += (end - start - child_ns[i]) / 1e9
        calls[name] += 1
        if name == RUN_SPAN:
            run_durations.append((end - start) / 1e9)
    return total, self_s, calls, run_durations


def layer_metrics(tracer: Tracer, jobs: list[dict], setups: list[str],
                  untraced_walls: list[float], missing: set) -> dict:
    """Per-layer metrics: the median over traced jobs of each job's value.

    ``jobs`` holds one dict per traced job: its run id, raw wall time
    (checks included), check time, emulator counts and the facts read
    off its outputs, keyed by metric name (``runtime.inits`` counts the
    controllers that saw a first delay).
    """
    per_job = defaultdict(list)
    run_samples = []
    for job in jobs:
        total, self_s, calls, runs = _span_sums(tracer.spans, job["run"])
        run_samples.extend(runs)
        values = {}
        for metric, (_unit, span, kind) in SPAN_METRICS.items():
            values[metric] = {"total": total, "self": self_s, "calls": calls}[kind][span]
        values.update(job["facts"])
        values["pipeline.self_s"] = (
            self_s["pipeline.train_on_traces"] + self_s["pipeline.run_and_derive"]
        )
        pkts = job["pkts"]
        values["linksim.pkts"] = pkts
        values["linksim.ns_per_pkt"] = self_s[RUN_SPAN] / pkts * 1e9 if pkts else 0.0
        values["linksim.drop_ratio"] = job["dropped"] / pkts if pkts else 0.0
        # Every epoch with ACKs either seeds the first delay, exits the
        # trained range, falls back (marginal row or hold) or draws from
        # its exact row.
        delay_epochs = tracer.counts[(job["run"], "runtime.on_epoch.delay_epochs")]
        exact = delay_epochs - sum(
            job["facts"][k]
            for k in ("runtime.inits", "runtime.range_exit", "runtime.marginal", "runtime.fallback")
        )
        values["runtime.exact_ratio"] = exact / delay_epochs if delay_epochs else 0.0
        top = sum(
            s[4] - s[3] for s in tracer.spans if s[2] == job["run"] and s[1] < 0
        ) / 1e9
        values["bench.unattributed_s"] = job["raw_wall_s"] - top
        for metric, value in values.items():
            per_job[metric].append(value)

    out = {metric: statistics.median(vals) for metric, vals in per_job.items()}
    gen = []
    for run in setups:
        gen.append(_span_sums(tracer.spans, run)[0]["trace.gen_rapidly_changing"])
    out["trace.gen_s"] = statistics.median(gen)
    out["trace.opps"] = int(statistics.median(
        tracer.counts[(run, "trace.opps")] for run in setups
    ))
    out["linksim.run_samples"] = len(run_samples)
    p50, p80 = np.percentile(run_samples, [50, 80]) if run_samples else (0.0, 0.0)
    out["linksim.run_p50_s"] = float(p50)
    out["linksim.run_p80_s"] = float(p80)
    traced_wall = statistics.median(
        job["raw_wall_s"] - job["check_s"] for job in jobs
    )
    out["bench.trace_overhead_s"] = traced_wall - statistics.median(untraced_walls)

    for metric, (_unit, span, _kind) in SPAN_METRICS.items():
        if span in missing:
            out[metric] = None
    for metric, (_unit, spans) in DERIVED_METRICS.items():
        if any(span in missing for span in spans):
            out[metric] = None
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}
