"""Command-line surface: gen-trace, train, run, analyze, compare, fingerprint.

Every command validates its inputs and computes its full output before
opening the destination file, so failed invocations do not leave partial
artifacts behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import markov
from .controllers import BASELINES, make_controller
from .heatmap import heatmap_export
from .linksim import (
    LinkParams,
    read_epoch_csv,
    read_packet_csv,
    run_simulation,
    summarize,
    write_epoch_csv,
    write_packet_csv,
)
from .pipeline import derive_run_seed, train_on_traces
from .runtime import MdiController
from .trace import (
    LinkTrace,
    SyntheticTraceSpec,
    gen_rapidly_changing,
    load_trace,
    save_trace,
)
from .trainer import load_model, save_model


class CliError(ValueError):
    """A command's inputs were unusable."""


def _load_trace_path(path: Path, mtu: int) -> LinkTrace:
    with open(path, "rb") as fh:
        return load_trace(fh, mtu_bytes=mtu)


def _queue_arg(value: int) -> int | None:
    return None if value == 0 else value


def _run_siblings(out: Path) -> tuple[Path, Path]:
    """The packet log and the run parameters written beside an epoch CSV."""
    return out.with_suffix(".packets.csv"), out.with_suffix(".run.json")


def _json_dump(obj, path: Path | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def cmd_gen_trace(args) -> int:
    spec = SyntheticTraceSpec(
        duration_s=args.duration,
        segment_s=args.segment,
        rate_min_mbps=args.rate_min,
        rate_max_mbps=args.rate_max,
        seed=args.seed,
    )
    trace = gen_rapidly_changing(spec, mtu_bytes=args.mtu)
    with open(args.out, "wb") as fh:
        save_trace(trace, fh)
    print(
        f"wrote {args.out}: {len(trace)} opportunities over {trace.duration_ms} ms, "
        f"mean {trace.mean_rate_mbps():.3f} Mbps"
    )
    return 0


def cmd_train(args) -> int:
    trace_dir = Path(args.traces)
    if not trace_dir.is_dir():
        raise CliError(f"not a directory: {trace_dir}")
    files = sorted(trace_dir.glob("*.trace"))
    if not files:
        raise CliError(f"no *.trace files in {trace_dir}")
    traces = [(f.name, _load_trace_path(f, args.mtu)) for f in files]
    ctrl_kwargs = {}
    if args.epoch_ms is not None:
        ctrl_kwargs["epoch_ms"] = args.epoch_ms

    model, trained_from = train_on_traces(
        traces,
        lambda: make_controller(args.controller, **ctrl_kwargs),
        n_d=args.n_d,
        n_w=args.n_w,
        duration_ms=int(round(args.duration * 1000)),
        one_way_prop_ms=args.prop_ms,
        queue_capacity_pkts=_queue_arg(args.queue),
        loss_rate=args.loss,
        master_seed=args.seed,
        runs_per_trace=args.runs,
    )
    with open(args.out, "wb") as fh:
        save_model(model, fh)
    print(
        f"wrote {args.out}: {model.total_transitions} transitions from "
        f"{trained_from['runs']} runs ({trained_from['epochs']} epochs), "
        f"{model.source_state_count()}/{model.cfg.n_states} source states, "
        f"{model.empty_quadrant_row_fraction():.3f} empty quadrant rows"
    )
    return 0


def cmd_run(args) -> int:
    # A flag is passed only when given, and only to a controller whose
    # constructor takes it; the constructor holds the default.
    cls = MdiController if args.controller == "mdi" else BASELINES[args.controller]
    takes = inspect.signature(cls).parameters
    kwargs = {}
    for name in ("epoch_ms", "w_init", "c1", "c2"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in takes:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} does not apply to --controller {args.controller}")
        kwargs[name] = value
    trace_path = Path(args.trace)
    trace = _load_trace_path(trace_path, args.mtu)
    model = None
    if args.model is not None:
        with open(args.model, "rb") as fh:
            model = load_model(fh)

    if cls is MdiController:
        if model is None:
            raise CliError("--controller mdi requires --model")
        kwargs.update(model=model, seed=derive_run_seed(args.seed, trace_path.name, 1))
    controller = cls(**kwargs)

    params = LinkParams(
        trace=trace,
        one_way_prop_ms=args.prop_ms,
        queue_capacity_pkts=_queue_arg(args.queue),
        loss_rate=args.loss,
        seed=derive_run_seed(args.seed, trace_path.name, 0),
        duration_ms=int(round(args.duration * 1000)),
    )
    result = run_simulation(params, controller)

    out = Path(args.out)
    packets_path, params_path = _run_siblings(out)
    with open(out, "w", encoding="utf-8") as fh:
        write_epoch_csv(result.epochs, fh)
    with open(packets_path, "w", encoding="utf-8") as fh:
        write_packet_csv(result, fh)
    _json_dump({"duration_ms": result.duration_ms, "mtu_bytes": result.mtu_bytes}, params_path)

    s = result.summary
    line = (
        f"{args.controller}: throughput Mbps median {s.throughput_mbps.p50:.3f} "
        f"(p25 {s.throughput_mbps.p25:.3f}, p75 {s.throughput_mbps.p75:.3f}), "
        f"delay ms median {s.delay_ms.p50:.3f} "
        f"(p25 {s.delay_ms.p25:.3f}, p75 {s.delay_ms.p75:.3f}), "
        f"sent {result.sent_pkts}, delivered {result.delivered_pkts}, "
        f"dropped {result.dropped_pkts}"
    )
    if isinstance(controller, MdiController) and controller.epoch_count:
        line += (
            f", fallback {controller.fallback_count}/{controller.epoch_count} epochs"
            f", marginal {controller.marginal_count}"
            f", range-exit {controller.boundary_count}"
        )
    if result.zero_delivered:
        line += " [WARNING: nothing delivered]"
    print(line)
    return 0


def _parse_epsilons(text: str) -> list[float]:
    try:
        eps = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError(f"bad epsilon list: {text!r}") from None
    if not eps:
        raise CliError("need at least one epsilon")
    return eps


def cmd_analyze(args) -> int:
    if args.discard and args.result is None:
        raise CliError("--discard needs --result")
    with open(args.model, "rb") as fh:
        model = load_model(fh)
    if model.total_transitions == 0:
        raise CliError(f"model {args.model} has no transitions; nothing to analyze")
    epsilons = _parse_epsilons(args.epsilons)
    P = markov.to_stochastic(model, empty_rows=args.empty_rows)
    if args.lazy:
        P = markov.lazy(P)
    try:
        pi = markov.stationary(P)
    except markov.ConvergenceError as exc:
        raise CliError(f"{exc} (hint: pass --lazy)") from None
    reports = markov.mixing_times(P, epsilons)

    report = {
        "n_states": model.cfg.n_states,
        "n_d": model.cfg.n_d,
        "n_w": model.cfg.n_w,
        "transitions": model.total_transitions,
        "empty_rows_policy": args.empty_rows,
        "lazy": bool(args.lazy),
        "irreducible": markov.is_irreducible(P),
        "stationary_residual": float(np.abs(pi @ P - pi).max()),
        "mixing": {
            repr(e): {
                "t_mix": rep.t_mix,
                "per_start": rep.per_start.tolist(),
            }
            for e, rep in sorted(reports.items())
        },
        "stationary": pi.tolist(),
    }
    line = f"stationary over {model.cfg.n_states} states; " + ", ".join(
        f"eps={e:g}: t_mix={rep.t_mix}" for e, rep in sorted(reports.items())
    )
    if args.result is not None:
        # The run's states on this model's grid, whichever grid it was run on.
        with open(args.result, "r", encoding="utf-8") as fh:
            log = read_epoch_csv(fh)
        if len(log) < 2:
            raise CliError(f"epoch log {args.result} has fewer than 2 records")
        empirical = markov.empirical_distribution(log, model.cfg, discard=args.discard)
        report.update(
            result=str(args.result),
            discard=args.discard,
            epochs_used=len(log) - 1 - args.discard,
            kl_empirical_vs_stationary=markov.kl_divergence(empirical, pi),
            max_abs_diff=markov.max_abs_diff(empirical, pi),
        )
        line += (
            f"; KL(empirical || stationary) = {report['kl_empirical_vs_stationary']:.4f}, "
            f"max state gap = {report['max_abs_diff']:.4f}"
        )
    _json_dump(report, Path(args.out) if args.out else None)
    print(line, file=sys.stderr)
    return 0


def _pdf(values: np.ndarray, edges: np.ndarray) -> list[float]:
    hist, _ = np.histogram(values, bins=edges)
    total = hist.sum()
    if total == 0:
        return [0.0] * len(hist)
    return (hist / total).tolist()


def cmd_compare(args) -> int:
    path_a, path_b = Path(args.a), Path(args.b)
    logs, stats = {}, {}
    for key, path in (("a", path_a), ("b", path_b)):
        pk, rp = _run_siblings(path)
        for sibling, what in ((pk, "packet log"), (rp, "run parameters")):
            if not sibling.exists():
                raise CliError(f"missing {what} {sibling} (written alongside run output)")
        with open(pk, "r", encoding="utf-8") as fh:
            log = logs[key] = read_packet_csv(fh)
        try:
            summary = summarize(log, **json.loads(rp.read_text(encoding="utf-8")))
        except TypeError as exc:
            raise CliError(f"{rp} needs integer duration_ms and mtu_bytes: {exc}") from None
        stats[key] = {
            "sent": log.sent_pkts,
            "delivered": log.delivered_pkts,
            "dropped": log.dropped_pkts,
            **dataclasses.asdict(summary),
        }
    rtt_a = logs["a"].rtt_ms[logs["a"].rtt_ms >= 0]
    rtt_b = logs["b"].rtt_ms[logs["b"].rtt_ms >= 0]
    if rtt_a.size and rtt_b.size:
        lo = float(min(rtt_a.min(), rtt_b.min()))
        hi = float(max(rtt_a.max(), rtt_b.max())) + 1.0
        edges = np.linspace(lo, hi, 51)
        delay_pdf = {
            "edges": edges.tolist(),
            "a": _pdf(rtt_a, edges),
            "b": _pdf(rtt_b, edges),
        }
    else:
        delay_pdf = {"edges": [], "a": [], "b": []}

    def rel(metric: str) -> float:
        va = stats["a"][metric]["p50"]
        vb = stats["b"][metric]["p50"]
        return abs(va - vb) / max(abs(vb), 1e-9)

    report = {
        "a": {"path": str(path_a), **stats["a"]},
        "b": {"path": str(path_b), **stats["b"]},
        "rel_diff_vs_b": {
            "throughput_median": rel("throughput_mbps"),
            "delay_median": rel("delay_ms"),
        },
        "delay_pdf": delay_pdf,
    }
    _json_dump(report, Path(args.out) if args.out else None)
    print(
        "medians a vs b: "
        f"throughput {stats['a']['throughput_mbps']['p50']:.3f} / "
        f"{stats['b']['throughput_mbps']['p50']:.3f} Mbps "
        f"(rel {report['rel_diff_vs_b']['throughput_median']:.3f}), "
        f"delay {stats['a']['delay_ms']['p50']:.3f} / "
        f"{stats['b']['delay_ms']['p50']:.3f} ms "
        f"(rel {report['rel_diff_vs_b']['delay_median']:.3f})",
        file=sys.stderr,
    )
    return 0


def cmd_fingerprint(args) -> int:
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        raise CliError(f"--out {out} would be overwritten by its own CSV; give the SVG path")
    with open(args.model, "rb") as fh:
        model = load_model(fh)
    if model.total_transitions == 0:
        print(
            "warning: model has no transitions; rendering an empty fingerprint",
            file=sys.stderr,
        )
    cfg = model.cfg
    n = cfg.n_states
    quad = model.quadrant_rows.reshape(n, n)
    csv_buf, svg_buf = io.StringIO(), io.StringIO()
    heatmap_export(quad, cfg, csv_buf, svg_buf, title=args.title)
    out.write_text(svg_buf.getvalue(), encoding="utf-8")
    csv_path.write_text(csv_buf.getvalue(), encoding="utf-8")
    print(f"wrote {out} and {csv_path}")
    return 0


def _add_link_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--duration", type=float, default=60.0, help="run length, seconds")
    p.add_argument("--prop-ms", type=int, default=10, help="one-way propagation, ms")
    p.add_argument(
        "--queue", type=int, default=0, help="queue capacity in packets, 0 = unbounded"
    )
    p.add_argument("--loss", type=float, default=0.0, help="random loss rate in [0, 1)")
    p.add_argument("--mtu", type=int, default=1500, help="packet size, bytes")
    p.add_argument("--seed", type=int, default=1, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdi",
        description=(
            "Train Markov transition models from congestion-controller runs, "
            "execute them as controllers, and analyze their convergence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic capacity trace")
    p.add_argument("--duration", type=float, default=60.0, help="trace length, seconds")
    p.add_argument(
        "--segment", type=float, default=5.0, help="seconds between rate redraws"
    )
    p.add_argument("--rate-min", type=float, default=4.0, help="Mbps lower bound")
    p.add_argument("--rate-max", type=float, default=25.0, help="Mbps upper bound")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mtu", type=int, default=1500, help="packet size, bytes")
    p.add_argument("--out", required=True, help="output trace path")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("train", help="train a transition model from controller runs")
    p.add_argument("--traces", required=True, help="directory of *.trace files")
    p.add_argument(
        "--controller",
        default="verus-like",
        choices=sorted(BASELINES),
        help="baseline controller to run",
    )
    p.add_argument("--runs", type=int, default=1, help="runs per trace")
    p.add_argument("--epoch-ms", type=int, default=None, help="override epoch length")
    p.add_argument("--n-d", type=int, default=11, help="delay buckets")
    p.add_argument("--n-w", type=int, default=21, help="window buckets")
    _add_link_args(p)
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run a controller over one trace")
    p.add_argument("--trace", required=True, help="trace file")
    p.add_argument(
        "--controller",
        default="mdi",
        choices=sorted(BASELINES) + ["mdi"],
    )
    p.add_argument("--model", default=None, help="trained model (required for mdi)")
    p.add_argument("--epoch-ms", type=int, default=None, help="override epoch length")
    p.add_argument("--c1", type=float, default=None, help="below-range window gain")
    p.add_argument("--c2", type=float, default=None, help="above-range window cut")
    p.add_argument("--w-init", type=float, default=None, help="initial window, packets")
    _add_link_args(p)
    p.add_argument("--out", required=True, help="epoch CSV path (packet CSV sits beside)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "analyze",
        help="stationary distribution and mixing times, and how a run's states fit them",
    )
    p.add_argument("--model", required=True)
    p.add_argument(
        "--empty-rows",
        choices=["self-loop", "uniform"],
        default="uniform",
        help="policy for states with no observed outgoing transitions",
    )
    p.add_argument("--lazy", action="store_true", help="analyze (P + I) / 2 instead")
    p.add_argument(
        "--epsilons", default="1e-3,1e-5,1e-7", help="comma-separated thresholds"
    )
    p.add_argument("--result", default=None, help="epoch CSV of a run to hold against pi")
    p.add_argument("--discard", type=int, default=0, help="burn-in epochs to drop")
    p.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="compare two runs' throughput and delay")
    p.add_argument("--a", required=True, help="epoch CSV of run A")
    p.add_argument("--b", required=True, help="epoch CSV of run B (reference)")
    p.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fingerprint", help="export quadrant heatmap (SVG + CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--title", default="", help="SVG title text")
    p.add_argument("--out", required=True, help="SVG path; CSV written alongside")
    p.set_defaults(func=cmd_fingerprint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
