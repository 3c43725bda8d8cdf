"""The benchmark's workloads: set-up, timed jobs and output checks.

Each workload is a closed loop with a single caller: one job at a time,
each job one of the paper's jobs run end to end. README.md gives the
rationale for each workload and the layer-to-metric map.
"""

from __future__ import annotations

import gc
import hashlib
import io
import math
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import harness
from mdi import heatmap, linksim, markov, pipeline, trace, trainer
from mdi.linksim import LinkParams
from mdi.pipeline import derive_run_seed
from mdi.runtime import MdiController
from mdi.trace import SyntheticTraceSpec

import checks
import hostspeed
import tracing

# Every workload draws its traces from the hard verus-like family:
# 3-50 Mbps, redrawn every 2 s.
FAMILY = harness.VERUS
# Trace generation is cheap, so set-up repeats it and reports the median.
CORPUS_SETUPS = 5
# Untraced jobs per run, at least; job_s is the median of their
# scaled times (hostspeed.scaled_seconds).
MIN_JOBS = 2
EPSILONS = (1e-3, 1e-5, 1e-7)

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "sim_speedup": "link-s/s",
    "kpkt_per_s": "kpkt/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Scale:
    """Corpus size; the full scale is the acceptance corpus."""

    n_train: int = harness.N_TRAIN
    n_held: int = harness.N_HELD
    duration_s: int = harness.DURATION_S


FULL = Scale()


@dataclass(frozen=True)
class Workload:
    name: str
    spec: harness.HarnessSpec
    queue_pkts: int
    loss_rate: float
    drive: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-verus", harness.VERUS, harness.QUEUE_PKTS, 0.0, drive=False),
        Workload("train-copa-lossy", harness.COPA, 60, 0.01, drive=False),
        Workload("drive-verus", harness.VERUS, harness.QUEUE_PKTS, 0.0, drive=True),
    )
}


def corpus(seed: int, scale: Scale, count: int) -> list:
    """Named traces for a workload seed; seed 0 is the acceptance corpus
    (trace seeds 1000 + i), and each other seed gets its own block."""
    first = 1000 + seed * (scale.n_train + scale.n_held)
    out = []
    for i in range(count):
        spec = SyntheticTraceSpec(
            duration_s=scale.duration_s,
            segment_s=FAMILY.segment_s,
            rate_min_mbps=FAMILY.rate_min_mbps,
            rate_max_mbps=FAMILY.rate_max_mbps,
            seed=first + i,
        )
        out.append((f"t{i:02d}", trace.gen_rapidly_changing(spec)))
    return out


class Ops:
    """Operations attempted, and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))


@dataclass
class DriveOut:
    """Everything one drive job produced."""

    model: trainer.TransitionModel
    held: list
    read_back: list  # per held trace: label -> (epochs, packets, CSV paths)
    P: np.ndarray
    pi: np.ndarray
    mixing: dict
    kl: float
    heatmap_text: str
    gaps: tuple


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One workload's run: set-up, timed jobs, checks and results."""

    def __init__(self, workload: Workload, seed: int, scale: Scale, traced: bool,
                 work_dir: Path) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.w = workload
        self.seed = seed
        self.scale = scale
        self.master_seed = harness.MASTER_SEED + seed
        self.work_dir = work_dir
        self.ops = Ops()
        self.probe = tracing.Probe(self.ops)
        self.tracer = tracing.Tracer() if traced else None
        self.active: tracing.Tracer | None = None
        self.missing: set[str] = set()
        self.digests: dict | None = None
        self.fidelity: dict | None = None
        self.trained_bytes: bytes | None = None

    @property
    def link(self) -> dict:
        return dict(
            one_way_prop_ms=harness.PROP_MS,
            queue_capacity_pkts=self.w.queue_pkts,
            loss_rate=self.w.loss_rate,
            duration_ms=self.scale.duration_s * 1000,
        )

    @contextmanager
    def phase(self, run: str, traced: bool):
        """Time one set-up or job; traced phases also record spans."""
        self.active = self.tracer if traced else None
        if self.active is not None:
            self.active.run = run
        undo = tracing.install(self.probe, self.active, self.missing)
        p = self.probe
        before = (p.check_ns, p.link_ms, p.pkts, p.dropped)
        rec = {"run": run}
        if not traced:
            p.marks = []
            p.mark()
        start = p.clock()
        t0 = time.perf_counter_ns()
        try:
            yield rec
        finally:
            raw_ns = time.perf_counter_ns() - t0
            end = p.clock()
            p.mark()
            marks, p.marks = p.marks, None
            undo()
            self.active = None
        rec["scaled_s"] = None
        if marks is not None:
            clocks, ref_ns = zip(*marks)
            rec["scaled_s"] = hostspeed.scaled_seconds(
                [b - a for a, b in zip(clocks, clocks[1:])], ref_ns
            )
            rec["ref_median_ns"] = statistics.median(ref_ns)
        rec["raw_wall_s"] = raw_ns / 1e9
        rec["check_s"] = (p.check_ns - before[0]) / 1e9
        rec["wall_s"] = (end - start) / 1e9
        rec["link_s"] = (p.link_ms - before[1]) / 1000.0
        rec["pkts"] = p.pkts - before[2]
        rec["dropped"] = p.dropped - before[3]

    def baseline(self):
        return tracing.timed(self.w.spec.make_controller(), "controllers.on_epoch", self.active)

    def train(self, traces) -> trainer.TransitionModel:
        model, _summary = pipeline.train_on_traces(
            traces, self.baseline, master_seed=self.master_seed, **self.link
        )
        return model

    def setup(self) -> tuple[dict, list, trainer.TransitionModel | None]:
        """Build the corpus CORPUS_SETUPS times (it must repeat exactly)
        and, for drive-verus, train the model once.

        Returns the scaled set-up times (the median corpus time and the
        training time; empty when traced), the traces and the model.
        """
        count = self.scale.n_train + (self.scale.n_held if self.w.drive else 0)
        traced = self.tracer is not None
        times, corpora = [], []
        for k in range(CORPUS_SETUPS):
            with self.phase(f"setup-{k}", traced) as rec:
                corpora.append(corpus(self.seed, self.scale, count))
            times.append(rec["scaled_s"])
        self.ops.record(
            "corpus",
            [] if all(c == corpora[0] for c in corpora) else ["corpus differs between set-ups"],
        )
        parts = {} if traced else {"corpus_s": statistics.median(times), "train_s": 0.0}
        traces, model = corpora[0], None
        if self.w.drive:
            with self.phase("setup-train", traced) as rec:
                model = self.train(traces[: self.scale.n_train])
            if not traced:
                parts["train_s"] = rec["scaled_s"]
            _facts, self.trained_bytes = self.check_model("training", model)
        return parts, traces, model

    def drive(self, model, held, tmp: Path) -> DriveOut:
        """The README's CLI walkthrough on the held-out traces."""
        model_path = tmp / "verus.model"
        with open(model_path, "wb") as fh:
            trainer.save_model(model, fh)
        with open(model_path, "rb") as fh:
            loaded = trainer.load_model(fh)
        link = self.link
        runs, read_back = [], []
        for name, tr in held:
            native = linksim.run_simulation(
                LinkParams(trace=tr, seed=derive_run_seed(self.master_seed, name + ":n", 0), **link),
                self.baseline(),
            )
            ctrl = MdiController(
                loaded,
                epoch_ms=self.w.spec.epoch_ms,
                seed=derive_run_seed(self.master_seed, name + ":m", 1),
            )
            driven, records = pipeline.run_and_derive(
                tr,
                tracing.timed(ctrl, "runtime.on_epoch", self.active),
                loaded.cfg,
                seed=derive_run_seed(self.master_seed, name + ":m", 0),
                **link,
            )
            runs.append(harness.HeldRun(name, tr, native, driven, records, ctrl))
            back = {}
            for label, result, recs in (("native", native, native.epochs), ("mdi", driven, records)):
                epoch_path = tmp / f"{name}.{label}.csv"
                packet_path = tmp / f"{name}.{label}.packets.csv"
                with open(epoch_path, "w", encoding="utf-8") as fh:
                    linksim.write_epoch_csv(recs, fh)
                with open(packet_path, "w", encoding="utf-8") as fh:
                    linksim.write_packet_csv(result, fh)
                with open(epoch_path, encoding="utf-8") as fh:
                    epochs_back = linksim.read_epoch_csv(fh)
                with open(packet_path, encoding="utf-8") as fh:
                    packets_back = linksim.read_packet_csv(fh)
                back[label] = (epochs_back, packets_back, (epoch_path, packet_path))
            read_back.append(back)

        # Analysis, with the acceptance tests' recipe for KL.
        cfg = loaded.cfg
        P = markov.to_stochastic(loaded, empty_rows="uniform")
        pi = markov.stationary(P)
        mixing = markov.mixing_times(P, EPSILONS)
        burn_in = mixing[EPSILONS[0]].t_mix
        emp = np.mean(
            [
                markov.empirical_distribution(back["mdi"][0], cfg, discard=burn_in)
                for back in read_back
            ],
            axis=0,
        )
        kl = markov.kl_divergence(emp / emp.sum(), pi)
        csv_buf, svg_buf = io.StringIO(), io.StringIO()
        n = cfg.n_states
        heatmap.heatmap_export(
            loaded.quadrant_rows.reshape(n, n), cfg, csv_buf, svg_buf, title=self.w.spec.label
        )
        bundle = harness.Bundle(
            spec=self.w.spec, traces=list(held), model=loaded, summary={}, held=runs
        )
        gaps = harness.pooled_median_gap(bundle)
        return DriveOut(
            loaded, runs, read_back, P, pi, mixing, kl,
            csv_buf.getvalue() + svg_buf.getvalue(), gaps,
        )

    def check_model(self, op: str, model, expected: bytes | None = None) -> tuple[dict, bytes]:
        """Record the model checks as one operation; returns facts and bytes."""
        problems, data = checks.model_problems(model)
        if expected is not None and data != expected:
            problems.append("loaded model differs from the trained one")
        self.ops.record(op, problems)
        facts = {
            "trainer.transitions": model.total_transitions,
            "trainer.empty_row_fraction": model.empty_quadrant_row_fraction(),
        }
        return facts, data

    def check_drive(self, out: DriveOut) -> tuple[dict, dict]:
        """Check a drive job's outputs; returns facts and digests."""
        facts, model_data = self.check_model("model round trip", out.model, self.trained_bytes)
        csv_hash = hashlib.sha256()
        csv_bytes = 0
        for run, back in zip(out.held, out.read_back):
            for label, result, recs in (
                ("native", run.native, run.native.epochs),
                ("mdi", run.mdi, run.mdi_records),
            ):
                epochs_back, packets_back, paths = back[label]
                self.ops.record(
                    "epoch CSV round trip", checks.epoch_csv_problems(recs, epochs_back)
                )
                self.ops.record(
                    "packet CSV round trip", checks.packet_csv_problems(result, packets_back)
                )
                for path in paths:
                    data = path.read_bytes()
                    csv_hash.update(data)
                    csv_bytes += len(data)
        self.ops.record("stationary", checks.residual_problems(out.P, out.pi))
        t_mix = [out.mixing[e].t_mix for e in EPSILONS]
        self.ops.record(
            "mixing", [] if t_mix == sorted(t_mix) else [f"t_mix not ordered by epsilon: {t_mix}"]
        )
        self.ops.record(
            "KL", [] if math.isfinite(out.kl) and out.kl >= 0.0 else [f"KL is {out.kl!r}"]
        )
        self.ops.record(
            "heatmap", [] if "</svg>" in out.heatmap_text else ["heatmap SVG is incomplete"]
        )
        self.ops.record(
            "median gaps",
            [] if all(math.isfinite(g) for g in out.gaps) else [f"gaps are {out.gaps!r}"],
        )
        ctrls = [run.mdi_ctrl for run in out.held]
        facts.update({
            "linksim.csv_mb": csv_bytes / 1e6,
            "runtime.marginal": sum(c.marginal_count for c in ctrls),
            "runtime.fallback": sum(c.fallback_count for c in ctrls),
            "runtime.range_exit": sum(c.boundary_count for c in ctrls),
            "markov.t_mix_1e-3": t_mix[0],
            "runtime.inits": sum(c.d_prev_ms is not None for c in ctrls),
        })
        self.fidelity = {
            "tput_gap": out.gaps[0],
            "delay_gap": out.gaps[1],
            "kl_stationary": out.kl,
            "t_mix": dict(zip(map(repr, EPSILONS), t_mix)),
        }
        digests = {
            "model_sha256": _sha(model_data),
            "csv_sha256": csv_hash.hexdigest(),
            "heatmap_sha256": _sha(out.heatmap_text.encode("utf-8")),
        }
        return facts, digests

    def job(self, k: int, traced: bool, traces, model) -> dict:
        """Run one timed job, then check what it produced."""
        gc.collect()
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            with self.phase(f"job-{k}", traced) as rec:
                if self.w.drive:
                    out = self.drive(model, traces[self.scale.n_train:], Path(tmp))
                else:
                    out = self.train(traces)
            if self.w.drive:
                facts, digests = self.check_drive(out)
            else:
                facts, model_data = self.check_model("training", out)
                digests = {"model_sha256": _sha(model_data)}
                facts.update({
                    "linksim.csv_mb": 0.0, "runtime.marginal": 0, "runtime.fallback": 0,
                    "runtime.range_exit": 0, "runtime.inits": 0, "markov.t_mix_1e-3": 0,
                })
        rec["facts"] = facts
        if self.digests is None:
            self.digests = digests
        else:
            self.ops.record(
                "repeat job",
                [f"{key} differs from the first job" for key in digests
                 if digests[key] != self.digests[key]],
            )
        return rec

    def params(self) -> dict:
        ctrl = self.w.spec.make_controller()
        first = 1000 + self.seed * (self.scale.n_train + self.scale.n_held)
        count = self.scale.n_train + (self.scale.n_held if self.w.drive else 0)
        return {
            "trace_family": {
                "rate_min_mbps": FAMILY.rate_min_mbps,
                "rate_max_mbps": FAMILY.rate_max_mbps,
                "segment_s": FAMILY.segment_s,
                "duration_s": self.scale.duration_s,
            },
            "trace_seeds": [first, first + count - 1],
            "n_train": self.scale.n_train,
            "n_held": self.scale.n_held if self.w.drive else 0,
            "master_seed": self.master_seed,
            "controller": ctrl.name,
            "controller_params": {k: v for k, v in vars(ctrl).items() if not k.startswith("_")},
            "prop_ms": harness.PROP_MS,
            "queue_pkts": self.w.queue_pkts,
            "loss_rate": self.w.loss_rate,
            "corpus_setups": CORPUS_SETUPS,
        }


def run(name: str, seed: int, seconds: float, traced: bool, work_dir: Path,
        scale: Scale = FULL, import_s: float = 0.0) -> tuple[dict, dict, tracing.Tracer | None]:
    """Set up and measure one workload; returns (report, result, tracer).

    Jobs repeat until ``seconds`` have passed, with at least MIN_JOBS
    untraced jobs. A traced run alternates untraced and traced jobs, at
    least one of each, so that the tracing overhead is measured in the
    same process.
    """
    bench = Bench(WORKLOADS[name], seed, scale, traced, work_dir)
    setup_parts, traces, model = bench.setup()
    modes = (False, True) if traced else (False,)
    plain, spanned = [], []
    start = time.perf_counter()
    k = 0
    while True:
        for mode in modes:
            (spanned if mode else plain).append(bench.job(k, mode, traces, model))
            k += 1
        if len(plain) >= (1 if traced else MIN_JOBS) and time.perf_counter() - start >= seconds:
            break

    walls = [rec["wall_s"] for rec in plain]
    job_s = statistics.median(rec["scaled_s"] for rec in plain)
    if traced:
        metrics = tracing.layer_metrics(
            bench.tracer, spanned, [f"setup-{k}" for k in range(CORPUS_SETUPS)],
            walls, bench.missing,
        )
    else:
        values = {
            "setup_s": import_s + sum(setup_parts.values()),
            "job_s": job_s,
            "sim_speedup": plain[0]["link_s"] / job_s,
            "kpkt_per_s": plain[0]["pkts"] / job_s / 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}

    failed = len(bench.ops.failures)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "params": bench.params(),
        "setup": dict(setup_parts, import_s=import_s),
        "jobs": {
            "untraced_wall_s": walls,
            "untraced_scaled_s": [rec["scaled_s"] for rec in plain],
            "reference_median_ns": [rec["ref_median_ns"] for rec in plain],
            "traced_wall_s": [rec["wall_s"] for rec in spanned],
        },
        "digests": bench.digests,
        "fidelity": bench.fidelity,
        "ops": {
            "attempted": bench.ops.attempted,
            "failed": failed,
            "ops_failed": failed / bench.ops.attempted,
            "failures": bench.ops.failures[:20],
        },
        "missing_layers": sorted(bench.missing),
    }
    result = {
        "correct": failed == 0,
        "attempted": bench.ops.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result, bench.tracer
