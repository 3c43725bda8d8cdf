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

from . import cells, markov
from .controllers import BASELINES, Pinned
from .heatmap import heatmap_export
from .linksim import (
    LinkParams,
    SummaryStats,
    read_epoch_csv,
    read_packet_csv,
    run_samples,
    run_simulation,
    write_epoch_csv,
    write_packet_csv,
)
from .pipeline import derive_run_seed, train_on_traces
from .quantizer import N_D, N_W
from .runtime import MdiController
from .trace import (
    LinkTrace,
    SyntheticTraceSpec,
    check_mtu,
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


def _duration_ms(seconds: float) -> int:
    """--duration in whole milliseconds, below 2**63 so that the product
    is finite; the link checks that it is >= 1 and that its packet
    times fit int64."""
    return int(round(cells.check_real("--duration", seconds, hi=2**63 / 1000) * 1000))


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
        lambda: BASELINES[args.controller](**ctrl_kwargs),
        n_d=args.n_d,
        n_w=args.n_w,
        duration_ms=_duration_ms(args.duration),
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
        duration_ms=_duration_ms(args.duration),
    )
    result = run_simulation(params, controller)

    out = Path(args.out)
    packets_path, params_path = _run_siblings(out)
    with open(out, "w", encoding="utf-8") as fh:
        write_epoch_csv(result.epochs, fh)
    with open(packets_path, "w", encoding="utf-8") as fh:
        write_packet_csv(result, fh)
    # run.json: the link parameters compare reads, and the run's counts.
    run_json = {
        "duration_ms": result.duration_ms,
        "mtu_bytes": result.mtu_bytes,
        "clamps": result.clamp_warnings,
        "loss_drops": result.loss_drops,
        "queued_end_pkts": result.queued_end_pkts,
        "silent_epochs": result.silent_epochs,
        "tail_drops": result.tail_drops,
    }
    if isinstance(controller, MdiController):
        run_json.update(
            fallback=controller.fallback_count,
            marginal=controller.marginal_count,
            range_high=controller.range_high_count,
            range_low=controller.range_low_count,
            unreached=controller.unreached_count,
        )
    _json_dump(run_json, params_path)

    s = result.summary
    line = (
        f"{args.controller}: throughput Mbps median {s.throughput_mbps.p50:.3f} "
        f"(p25 {s.throughput_mbps.p25:.3f}, p75 {s.throughput_mbps.p75:.3f}), "
        f"delay ms median {s.delay_ms.p50:.3f} "
        f"(p25 {s.delay_ms.p25:.3f}, p75 {s.delay_ms.p75:.3f}), "
        f"sent {result.sent_pkts}, delivered {result.delivered_pkts}, "
        f"dropped {result.dropped_pkts} (tail {result.tail_drops}, loss {result.loss_drops}), "
        f"silent epochs {result.silent_epochs}, "
        f"clamps {result.clamp_warnings}"
    )
    if isinstance(controller, MdiController) and controller.epoch_count:
        line += (
            f", fallback {controller.fallback_count}/{controller.epoch_count} epochs"
            f", marginal {controller.marginal_count}"
            f", range-low {controller.range_low_count}"
            f", range-high {controller.range_high_count}"
            f", unreached {controller.unreached_count}"
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
    P = markov.to_stochastic(model)
    pi = markov.stationary(P)
    reports = markov.mixing_times(P, epsilons)
    # Mixing is measured from the closed class's states only; a state
    # outside it that the runs left is transient.
    in_class = reports[max(reports)].per_start >= 0
    has_outflow = model.counts.sum(axis=(2, 3)).ravel() > 0

    report = {
        "n_states": model.cfg.n_states,
        "n_d": model.cfg.n_d,
        "n_w": model.cfg.n_w,
        "transitions": model.total_transitions,
        "closed_class_size": int(in_class.sum()),
        "transient_states": np.flatnonzero(has_outflow & ~in_class).tolist(),
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
    line = f"closed class of {report['closed_class_size']} of {report['n_states']} states; "
    line += ", ".join(f"eps={e:g}: t_mix={rep.t_mix}" for e, rep in sorted(reports.items()))
    if args.result is not None:
        # The run's states on this model's grid, whichever grid it was run on.
        with open(args.result, "r", encoding="utf-8") as fh:
            log = read_epoch_csv(fh)
        visits = markov.state_visits(log, model.cfg, discard=args.discard)
        empirical = visits / visits.sum()
        report.update(
            result=str(args.result),
            discard=args.discard,
            epochs_used=int(visits.sum()),
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


def _ks(a: np.ndarray, b: np.ndarray) -> float | None:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between
    the empirical CDFs of a and b, or None when either is empty."""
    if not (a.size and b.size):
        return None
    x = np.concatenate([a, b])
    cdf_a, cdf_b = (np.searchsorted(np.sort(v), x, side="right") / v.size for v in (a, b))
    return float(np.abs(cdf_a - cdf_b).max())


def _run_params(path: Path) -> dict[str, int]:
    """The duration_ms (an integer >= 1) and mtu_bytes (check_mtu's
    rule) of a run.json; other keys are ignored."""
    try:
        params = json.loads(path.read_text(encoding="utf-8"))
        return {
            "duration_ms": cells.check_int("duration_ms", params["duration_ms"], 1),
            "mtu_bytes": check_mtu(params["mtu_bytes"]),
        }
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"{path} needs integer duration_ms and mtu_bytes: {exc}") from None


def cmd_compare(args) -> int:
    path_a, path_b = Path(args.a), Path(args.b)
    samples, stats = {}, {}
    for key, path in (("a", path_a), ("b", path_b)):
        pk, rp = _run_siblings(path)
        for sibling, what in ((pk, "packet log"), (rp, "run parameters")):
            if not sibling.exists():
                raise CliError(f"missing {what} {sibling} (written alongside run output)")
        with open(pk, "r", encoding="utf-8") as fh:
            log = read_packet_csv(fh)
        samples[key] = run_samples(log, **_run_params(rp))
        stats[key] = {
            "sent": log.sent_pkts,
            "delivered": log.delivered_pkts,
            "dropped": log.dropped_pkts,
            **{m: dataclasses.asdict(SummaryStats.of(v)) for m, v in samples[key].items()},
        }
    # Each sample's median gap and KS distance, a against b.
    rel, ks, medians = {}, {}, []
    for metric, name, unit in (
        ("throughput_mbps", "throughput", "Mbps"),
        ("delay_ms", "delay", "ms"),
    ):
        va, vb = stats["a"][metric]["p50"], stats["b"][metric]["p50"]
        rel[f"{name}_median"] = gap = abs(va - vb) / max(abs(vb), 1e-9)
        ks[name] = _ks(samples["a"][metric], samples["b"][metric])
        medians.append(f"{name} {va:.3f} / {vb:.3f} {unit} (rel {gap:.3f})")
    report = {
        "a": {"path": str(path_a), **stats["a"]},
        "b": {"path": str(path_b), **stats["b"]},
        "rel_diff_vs_b": rel,
        "ks_vs_b": ks,
    }
    _json_dump(report, Path(args.out) if args.out else None)
    print("medians a vs b: " + ", ".join(medians), file=sys.stderr)
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
        # A pinned window never moves, so no window grid fits its runs.
        choices=sorted(set(BASELINES) - {Pinned.name}),
        help="baseline controller to run",
    )
    p.add_argument("--runs", type=int, default=1, help="runs per trace")
    p.add_argument("--epoch-ms", type=int, default=None, help="override epoch length")
    p.add_argument("--n-d", type=int, default=N_D, help="delay buckets")
    p.add_argument("--n-w", type=int, default=N_W, help="window buckets")
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
        "--epsilons", default="1e-3,1e-5,1e-7", help="comma-separated thresholds"
    )
    p.add_argument("--result", default=None, help="epoch CSV of a run to hold against pi")
    p.add_argument("--discard", type=int, default=0, help="burn-in states to drop")
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
