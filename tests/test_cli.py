"""End-to-end command-line workflows in a temporary workspace."""

import argparse
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mdi import markov
from mdi.cli import _ks, build_parser, main
from mdi.linksim import (
    LinkParams,
    read_epoch_csv,
    read_packet_csv,
    run_samples,
    run_simulation,
)
from mdi.pipeline import derive_run_seed
from mdi.quantizer import QuantizerConfig
from mdi.runtime import MdiController
from mdi.trace import MAX_MTU_BYTES, load_trace
from mdi.trainer import TransitionModel, load_model, save_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Traces, a trained model, and one native + one model-driven run."""
    root = tmp_path_factory.mktemp("cliws")
    traces = root / "traces"
    traces.mkdir()
    for i in range(3):
        rc = main(
            [
                "gen-trace", "--duration", "8", "--segment", "2",
                "--rate-min", "6", "--rate-max", "18",
                "--seed", str(100 + i),
                "--out", str(traces / f"t{i}.trace"),
            ]
        )
        assert rc == 0
    model = root / "verus.model"
    rc = main(
        [
            "train", "--traces", str(traces), "--controller", "verus-like",
            "--duration", "8", "--queue", "400", "--seed", "5",
            "--out", str(model),
        ]
    )
    assert rc == 0
    native = root / "native.csv"
    rc = main(
        [
            "run", "--trace", str(traces / "t0.trace"),
            "--controller", "verus-like", "--duration", "8",
            "--queue", "400", "--seed", "5", "--out", str(native),
        ]
    )
    assert rc == 0
    driven = root / "driven.csv"
    rc = main(
        [
            "run", "--trace", str(traces / "t0.trace"),
            "--controller", "mdi", "--model", str(model),
            "--duration", "8", "--queue", "400", "--seed", "5",
            "--out", str(driven),
        ]
    )
    assert rc == 0
    return root


def test_gen_trace_output_is_loadable(workspace):
    text = (workspace / "traces" / "t0.trace").read_text()
    stamps = [int(line) for line in text.splitlines()]
    assert stamps == sorted(stamps)
    assert len(stamps) > 1000  # at least a few Mbps for 8 s


def test_trained_model_file_parses_and_has_mass(workspace):
    with open(workspace / "verus.model", "rb") as fh:
        model = load_model(fh)
    assert model.cfg.n_states == 231
    assert model.total_transitions > 500


def test_run_writes_epoch_and_packet_csvs(workspace):
    epochs = read_epoch_csv(io.StringIO((workspace / "native.csv").read_text()))
    assert len(epochs) > 100
    packets = (workspace / "native.packets.csv").read_text().splitlines()
    assert packets[0] == "sent_ms,delivered_ms,acked_ms,dropped"
    assert len(packets) > 500


def test_native_and_model_driven_runs_share_one_epoch_layout(workspace):
    # A model-driven run's epoch log is the measurement alone, as a
    # native run's is; its states are derived where they are used.
    for name in ("native.csv", "driven.csv"):
        text = (workspace / name).read_text()
        assert text.partition("\n")[0] == "t_ms,delay_ms,window_pkts"
        assert len(read_epoch_csv(io.StringIO(text))) > 100


def test_run_mdi_without_model_fails_cleanly(workspace, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(
        [
            "run", "--trace", str(workspace / "traces" / "t0.trace"),
            "--controller", "mdi", "--out", str(out),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts
    # A gain the walk cannot use fails before the run starts.
    trace, model = str(workspace / "traces" / "t0.trace"), str(workspace / "verus.model")
    argv = ["run", "--trace", trace, "--controller", "mdi", "--model", model, "--c1", "inf"]
    assert main([*argv, "--out", str(out)]) == 1
    assert "c1 must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


RUN_FLAGS = {"--epoch-ms": "30", "--w-init": "4", "--c1": "1.5", "--c2": "0.5"}
# The run flags each controller's constructor takes.
TAKES = {
    "pinned": {"--epoch-ms"},
    "verus-like": {"--epoch-ms", "--w-init"},
    "copa-like": {"--epoch-ms", "--w-init"},
    "mdi": set(RUN_FLAGS),
}


@pytest.mark.parametrize(
    "controller, flag",
    [
        pytest.param(c, f, id=f"{c}{f}")
        for c in sorted(TAKES)
        for f in RUN_FLAGS
    ],
)
def test_run_passes_a_flag_only_to_a_controller_that_takes_it(
    workspace, tmp_path, capsys, controller, flag
):
    out = tmp_path / "f.csv"
    argv = [
        "run", "--trace", str(workspace / "traces" / "t0.trace"), "--duration", "1",
        "--controller", controller, flag, RUN_FLAGS[flag], "--out", str(out),
    ]
    if controller == "mdi":
        argv += ["--model", str(workspace / "verus.model")]
    if flag not in TAKES[controller]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and controller in err
        assert list(tmp_path.iterdir()) == []
        return
    assert main(argv) == 0
    epochs = read_epoch_csv(io.StringIO(out.read_text()))
    if flag == "--w-init":
        assert epochs.window_pkts[0] == 4.0
    if flag == "--epoch-ms":
        assert set(np.diff(epochs.t_ms).tolist()) == {30}


@pytest.mark.parametrize("controller", ["pinned", "verus-like", "copa-like", "mdi"])
def test_run_rejects_a_zero_ms_epoch(workspace, tmp_path, capsys, controller):
    # The controller's constructor rejects it before the run starts.
    argv = [
        "run", "--trace", str(workspace / "traces" / "t0.trace"), "--duration", "1",
        "--controller", controller, "--epoch-ms", "0", "--out", str(tmp_path / "e.csv"),
    ]
    if controller == "mdi":
        argv += ["--model", str(workspace / "verus.model")]
    assert main(argv) == 1
    assert "error: epoch_ms must be an integer >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_a_non_finite_duration_fails_cleanly(workspace, tmp_path, capsys, command, duration):
    out = tmp_path / "x.csv"
    if command == "run":
        argv = ["run", "--trace", str(workspace / "traces" / "t0.trace"), "--controller", "pinned"]
    else:
        argv = ["train", "--traces", str(workspace / "traces")]
    assert main([*argv, "--duration", duration, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--duration" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--duration", "1e300"], "--duration"),
        (
            ["--duration", "9223372036854774", "--prop-ms", "100000"],
            "duration_ms + 2 * one_way_prop_ms",
        ),
    ],
)
def test_packet_times_past_int64_fail_cleanly(workspace, tmp_path, capsys, extra, named):
    argv = ["run", "--trace", str(workspace / "traces" / "t0.trace"), "--controller", "pinned"]
    assert main([*argv, *extra, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} must be")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, named",
    [(["--rate-max", "1e300"], "rate_max_mbps"), (["--duration", "1e306"], "duration_s")],
)
def test_gen_trace_past_int64_fails_cleanly(tmp_path, capsys, extra, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen-trace", *extra, "--out", str(tmp_path / "x.trace")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mtu", [MAX_MTU_BYTES + 1, 10**400])
@pytest.mark.parametrize("command", ["gen-trace", "run"])
def test_an_mtu_past_its_bound_fails_cleanly(workspace, tmp_path, capsys, command, mtu):
    argv = [command, "--mtu", str(mtu), "--out", str(tmp_path / "x")]
    if command == "run":
        argv += ["--trace", str(workspace / "traces" / "t0.trace"), "--controller", "pinned"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: mtu_bytes must be at most {MAX_MTU_BYTES}")
    assert list(tmp_path.iterdir()) == []


def test_run_mdi_gains_default_to_the_controller_own(workspace, tmp_path):
    run = [
        "run", "--trace", str(workspace / "traces" / "t0.trace"), "--duration", "2",
        "--controller", "mdi", "--model", str(workspace / "verus.model"),
    ]
    assert main([*run, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*run, "--c1", "1.25", "--c2", "0.8", "--out", str(tmp_path / "b.csv")]) == 0
    for suffix in (".csv", ".packets.csv"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        assert a == (tmp_path / f"b{suffix}").read_bytes()


@pytest.mark.parametrize("w_init", ["1e306", "1e308"])
def test_run_mdi_from_a_window_near_the_float_ceiling_finishes(workspace, tmp_path, w_init):
    # 1000 * w_init overflows for both. On this model a walk from 1e308
    # searches a positive target before its range exits cut the window,
    # which bisected NaNs forever while the search bound could be inf.
    run = [
        "run", "--trace", str(workspace / "traces" / "t0.trace"), "--duration", "2",
        "--queue", "400", "--seed", "5", "--controller", "mdi",
        "--model", str(workspace / "verus.model"), "--w-init", w_init,
    ]
    assert main([*run, "--out", str(tmp_path / "big.csv")]) == 0
    counts = json.loads((tmp_path / "big.run.json").read_text())
    assert counts["range_high"] > 0 and counts["tail_drops"] > 0


def test_run_mdi_from_a_window_near_the_float_ceiling_on_an_unbounded_queue_is_refused(
    workspace, tmp_path, capsys
):
    # With no queue bound the first epoch sends about 1e306 packets, whose
    # send indices no int64 packet column holds.
    run = [
        "run", "--trace", str(workspace / "traces" / "t0.trace"), "--duration", "2",
        "--seed", "5", "--controller", "mdi", "--model", str(workspace / "verus.model"),
        "--w-init", "1e306", "--out", str(tmp_path / "big.csv"),
    ]
    assert main(run) == 1
    assert capsys.readouterr().err.startswith("error: the run sent 2**63 packets or more")
    assert list(tmp_path.iterdir()) == []


def test_run_prints_the_clamps_and_unreached_draws_it_counted(workspace, tmp_path, capsys):
    trace = workspace / "traces" / "t0.trace"
    run = ["run", "--trace", str(trace), "--duration", "8", "--queue", "400", "--seed", "5"]
    model = workspace / "verus.model"
    mdi = ["--controller", "mdi", "--model", str(model)]
    assert main([*run, *mdi, "--out", str(tmp_path / "m.csv")]) == 0
    assert main([*run, "--controller", "pinned", "--out", str(tmp_path / "p.csv")]) == 0
    mdi_line, pinned_line = capsys.readouterr().out.splitlines()
    # The same run in process, seeded as run seeds it.
    with open(model, "rb") as fh:
        ctrl = MdiController(load_model(fh), seed=derive_run_seed(5, "t0.trace", 1))
    with open(trace, "rb") as fh:
        link_trace = load_trace(fh)
    params = LinkParams(
        trace=link_trace, queue_capacity_pkts=400, duration_ms=8000,
        seed=derive_run_seed(5, "t0.trace", 0),
    )
    result = run_simulation(params, ctrl)
    assert f", clamps {result.clamp_warnings}," in mdi_line
    assert mdi_line.endswith(
        f", range-low {ctrl.range_low_count}, range-high {ctrl.range_high_count}"
        f", unreached {ctrl.unreached_count}"
    )
    assert ", clamps 0" in pinned_line and "unreached" not in pinned_line
    drops = f"dropped {result.dropped_pkts} (tail {result.tail_drops}, loss {result.loss_drops})"
    assert drops in mdi_line
    # run.json holds the link parameters and the counts the line prints;
    # only an mdi run has the walk's.
    assert json.loads((tmp_path / "m.run.json").read_text()) == {
        "duration_ms": 8000, "mtu_bytes": 1500,
        "clamps": result.clamp_warnings, "loss_drops": result.loss_drops,
        "queued_end_pkts": result.queued_end_pkts, "silent_epochs": result.silent_epochs,
        "tail_drops": result.tail_drops,
        "fallback": ctrl.fallback_count, "marginal": ctrl.marginal_count,
        "range_high": ctrl.range_high_count, "range_low": ctrl.range_low_count,
        "unreached": ctrl.unreached_count,
    }
    assert "unreached" not in json.loads((tmp_path / "p.run.json").read_text())


def test_train_rejects_missing_or_empty_trace_dir(workspace, tmp_path, capsys):
    rc = main(
        ["train", "--traces", str(tmp_path / "nope"), "--out", str(tmp_path / "m")]
    )
    assert rc == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--traces", str(empty), "--out", str(tmp_path / "m")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert not (tmp_path / "m").exists()


def test_train_only_accepts_baseline_controllers(workspace, tmp_path, capsys):
    # The model-driven controller is not trainable-on, and no grid fits
    # a pinned window, whose every window composite is 0. The parser
    # enforces the choice list before any work happens.
    for controller in ("mdi", "pinned"):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train", "--traces", str(workspace / "traces"),
                    "--controller", controller, "--out", str(tmp_path / "m"),
                ]
            )
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


def test_analyze_reports_stationary_and_ordered_mixing(workspace, tmp_path):
    report_path = tmp_path / "analysis.json"
    rc = main(
        [
            "analyze", "--model", str(workspace / "verus.model"),
            "--epsilons", "1e-3,1e-5,1e-7", "--out", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["n_states"] == 231
    assert "empty_rows_policy" not in report  # one empty-row rule, uniform
    # The analysis is of the one closed class the runs reached: pi and
    # the mixing starts are on it, and the transient states the runs
    # left are named.
    assert "lazy" not in report and "irreducible" not in report
    pi = np.array(report["stationary"])
    assert pi.shape == (231,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    in_class = np.flatnonzero(pi > 0.0)
    assert report["closed_class_size"] == in_class.size > 0
    for v in report["mixing"].values():
        assert np.flatnonzero(np.array(v["per_start"]) >= 0).tolist() == in_class.tolist()
    with open(workspace / "verus.model", "rb") as fh:
        outflow = load_model(fh).counts.sum(axis=(2, 3)).ravel() > 0
    assert report["transient_states"] == np.flatnonzero(outflow & (pi == 0.0)).tolist()
    assert report["stationary_residual"] <= 1e-8
    mix = {k: v["t_mix"] for k, v in report["mixing"].items()}
    assert mix["0.001"] <= mix["1e-05"] <= mix["1e-07"]


def test_analyze_rejects_empty_model(tmp_path, capsys):
    cfg = QuantizerConfig.uniform(-1, 1, -1, 1, n_d=2, n_w=2)
    path = tmp_path / "empty.model"
    with open(path, "wb") as fh:
        save_model(TransitionModel(cfg), fh)
    rc = main(["analyze", "--model", str(path)])
    assert rc == 1
    assert "no transitions" in capsys.readouterr().err


def test_analyze_has_no_empty_rows_option(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", str(workspace / "verus.model"), "--empty-rows", "uniform"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --empty-rows" in capsys.readouterr().err


def test_analyze_has_no_lazy_option(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", str(workspace / "verus.model"), "--lazy"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lazy" in capsys.readouterr().err


def test_ks_distance_is_the_largest_cdf_gap():
    assert _ks(np.array([1, 2, 3, 4]), np.array([2, 3, 4, 5])) == 0.25
    assert _ks(np.array([1.0, 1.0]), np.array([1.0])) == 0.0
    assert _ks(np.array([1.0]), np.array([2.0])) == 1.0
    assert _ks(np.array([]), np.array([1.0])) is None
    assert _ks(np.array([1.0]), np.array([])) is None


def brute_ks(a: np.ndarray, b: np.ndarray) -> float:
    """The KS distance by evaluating both empirical CDFs at every value."""
    x = np.union1d(a, b)[:, None]
    return float(np.abs((a <= x).mean(axis=1) - (b <= x).mean(axis=1)).max())


def compare(a: Path, b: Path, out: Path) -> dict:
    assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_compare_runs_reports_medians_and_ks_distances(workspace, tmp_path):
    driven, native = workspace / "driven.csv", workspace / "native.csv"
    report = compare(driven, native, tmp_path / "cmp.json")
    assert report["a"]["delivered"] > 0
    assert report["rel_diff_vs_b"]["throughput_median"] >= 0.0
    assert report["rel_diff_vs_b"]["delay_median"] >= 0.0
    assert "delay_pdf" not in report
    # KS of a against b over the samples summarize reads: per-second
    # throughput and the RTT of every ACKed packet.
    samples = []
    for path in (driven, native):
        log = read_packet_csv(io.StringIO(path.with_suffix(".packets.csv").read_text()))
        params = json.loads(path.with_suffix(".run.json").read_text())
        got = run_samples(log, params["duration_ms"], params["mtu_bytes"])
        samples.append((got["throughput_mbps"], got["delay_ms"]))
    (tput_a, rtt_a), (tput_b, rtt_b) = samples
    assert report["ks_vs_b"] == {
        "throughput": brute_ks(tput_a, tput_b),
        "delay": brute_ks(rtt_a, rtt_b),
    }
    assert 0.0 < report["ks_vs_b"]["delay"] < 1.0
    # A run against itself is at distance 0 on both.
    itself = compare(native, native, tmp_path / "self.json")
    assert itself["ks_vs_b"] == {"throughput": 0.0, "delay": 0.0}
    # compare reads run.json's two keys by name and ignores any other.
    grown = tmp_path / "grown.csv"
    grown.with_suffix(".packets.csv").write_text(native.with_suffix(".packets.csv").read_text())
    params = json.loads(native.with_suffix(".run.json").read_text())
    grown.with_suffix(".run.json").write_text(json.dumps({**params, "silent_epochs": 3}))
    report = compare(grown, native, tmp_path / "grown.json")
    assert report == {**itself, "a": {**itself["a"], "path": str(grown)}}
    # A run with no ACKed packet has no delay sample.
    silent = tmp_path / "silent.csv"
    silent.with_suffix(".packets.csv").write_text("sent_ms,delivered_ms,acked_ms,dropped\n0,,,1\n")
    silent.with_suffix(".run.json").write_text('{"duration_ms": 8000, "mtu_bytes": 1500}')
    for a, b in ((silent, native), (native, silent)):
        ks = compare(a, b, tmp_path / "silent.json")["ks_vs_b"]
        assert ks["delay"] is None
        assert ks["throughput"] == 1.0  # a run that delivers nothing vs one that does


def test_analyze_result_reports_divergences(workspace, tmp_path):
    out = tmp_path / "dist.json"
    rc = main(
        [
            "analyze", "--model", str(workspace / "verus.model"),
            "--result", str(workspace / "driven.csv"),
            "--discard", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["result"] == str(workspace / "driven.csv")
    assert report["discard"] == 5
    # The run's states re-derived on the model's grid, after the burn-in,
    # against the model's own stationary distribution.
    with open(workspace / "verus.model", "rb") as fh:
        model = load_model(fh)
    log = read_epoch_csv(io.StringIO((workspace / "driven.csv").read_text()))
    empirical = markov.empirical_distribution(log, model.cfg, discard=5)
    pi = markov.stationary(markov.to_stochastic(model))
    # The first and the last epoch have no state.
    assert report["epochs_used"] == len(log) - 2 - 5
    assert report["kl_empirical_vs_stationary"] == markov.kl_divergence(empirical, pi)
    assert report["max_abs_diff"] == markov.max_abs_diff(empirical, pi)
    assert report["kl_empirical_vs_stationary"] > 0.0
    assert 0.0 < report["max_abs_diff"] <= 1.0
    assert report["stationary"] == pi.tolist()


def test_analyze_counts_the_states_it_used(workspace, tmp_path, capsys):
    # Five epochs give three states (1, 2 and 3: epoch 0 has no delay
    # before it, epoch 4 no window move after it); one is burn-in.
    log = tmp_path / "short.csv"
    log.write_text(
        "t_ms,delay_ms,window_pkts\n"
        + "".join(f"{20 * i},{10.0 + i},{2.0 + i}\n" for i in range(5))
    )
    out = tmp_path / "short.json"
    args = ["analyze", "--model", str(workspace / "verus.model"), "--result", str(log)]
    assert main([*args, "--discard", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["epochs_used"] == 2
    capsys.readouterr()
    assert main([*args, "--discard", "3", "--out", str(out)]) == 1
    assert "no states left after discarding 3 of 3" in capsys.readouterr().err


def test_analyze_discard_needs_a_result(workspace, capsys):
    rc = main(["analyze", "--model", str(workspace / "verus.model"), "--discard", "5"])
    assert rc == 1
    assert "--discard needs --result" in capsys.readouterr().err


def test_compare_requires_a_complete_mode(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--a", str(workspace / "native.csv")])
    assert exc.value.code == 2
    assert "--b" in capsys.readouterr().err
    # The chain-against-run mode lives in analyze now.
    with pytest.raises(SystemExit):
        main(
            [
                "compare", "--model", str(workspace / "verus.model"),
                "--result", str(workspace / "driven.csv"),
            ]
        )


def test_compare_missing_packet_sibling_fails(workspace, tmp_path, capsys):
    lonely = tmp_path / "lonely.csv"
    lonely.write_text((workspace / "native.csv").read_text())
    rc = main(
        ["compare", "--a", str(lonely), "--b", str(workspace / "native.csv")]
    )
    assert rc == 1
    assert "missing packet log" in capsys.readouterr().err
    packets = (workspace / "native.packets.csv").read_text()
    (tmp_path / "lonely.packets.csv").write_text(packets)
    rc = main(
        ["compare", "--a", str(lonely), "--b", str(workspace / "native.csv")]
    )
    assert rc == 1
    assert "missing run parameters" in capsys.readouterr().err
    # A run.json without both integer keys, each at least 1, names the file.
    params = tmp_path / "lonely.run.json"
    for text in (
        '{"duration_ms": 8000}', '{"duration_ms": 8000.0, "mtu_bytes": 1500}',
        '{"duration_ms": "8000", "mtu_bytes": 1500}', '{"duration_ms": true, "mtu_bytes": 1500}',
        '{"duration_ms": 0, "mtu_bytes": 1500}', '{"duration_ms": 8000, "mtu_bytes": -1}',
        "[8000, 1500]", "8000", "{",
    ):
        params.write_text(text)
        assert main(["compare", "--a", str(lonely), "--b", str(workspace / "native.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{params} needs integer duration_ms and mtu_bytes" in err


def test_compare_throughput_matches_run_off_1500_byte_packets(tmp_path, capsys):
    trace, out, report = tmp_path / "t.trace", tmp_path / "p.csv", tmp_path / "c.json"
    common = ["--duration", "5", "--mtu", "500"]
    rate = ["--rate-min", "8", "--rate-max", "8"]
    assert main(["gen-trace", *common, *rate, "--out", str(trace)]) == 0
    run = ["run", "--trace", str(trace), "--controller", "pinned", "--out", str(out)]
    assert main([*run, *common]) == 0
    assert "throughput Mbps median 2.000" in capsys.readouterr().out
    assert json.loads((tmp_path / "p.run.json").read_text()) == {
        "duration_ms": 5000, "mtu_bytes": 500,
        "clamps": 0, "loss_drops": 0, "queued_end_pkts": 0, "silent_epochs": 1, "tail_drops": 0,
    }
    rc = main(["compare", "--a", str(out), "--b", str(out), "--out", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["a"]["throughput_mbps"]["p50"] == 2.0


def test_run_prints_the_silent_epochs_it_left_out_of_the_log(tmp_path, capsys):
    # 20 ms epochs over 5 s give 249 boundaries, each a log row or a
    # silent epoch; a 60 ms round trip makes the first two silent.
    trace, out = tmp_path / "t.trace", tmp_path / "p.csv"
    assert main(["gen-trace", "--duration", "5", "--out", str(trace)]) == 0
    run = ["run", "--trace", str(trace), "--controller", "pinned", "--epoch-ms", "20"]
    assert main([*run, "--duration", "5", "--prop-ms", "30", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        rows = len(read_epoch_csv(fh))
    assert 249 - rows >= 2
    assert f"silent epochs {249 - rows}" in capsys.readouterr().out
    # The count is printed, and run.json holds it beside the others.
    assert json.loads((tmp_path / "p.run.json").read_text()) == {
        "duration_ms": 5000, "mtu_bytes": 1500,
        "clamps": 0, "loss_drops": 0, "queued_end_pkts": 0, "silent_epochs": 249 - rows,
        "tail_drops": 0,
    }


def test_compare_reads_back_the_drops_and_delays_run_printed(workspace, tmp_path, capsys):
    # Random loss and a 20-packet queue, which a 100-packet initial
    # window overruns, drop packets both ways; compare derives each RTT
    # from the packet CSV's send and ACK times.
    trace = workspace / "traces" / "t0.trace"
    out, report = tmp_path / "lossy.csv", tmp_path / "c.json"
    run = [
        "run", "--trace", str(trace), "--controller", "copa-like", "--w-init", "100",
        "--duration", "8", "--loss", "0.05", "--queue", "20", "--seed", "1", "--out", str(out),
    ]
    assert main(run) == 0
    printed = capsys.readouterr().out
    assert main(["compare", "--a", str(out), "--b", str(out), "--out", str(report)]) == 0
    a = json.loads(report.read_text())["a"]
    d = a["delay_ms"]
    tail, loss = re.search(rf"dropped {a['dropped']} \(tail (\d+), loss (\d+)\)", printed).groups()
    assert int(tail) > 0 and int(loss) > 0 and int(tail) + int(loss) == a["dropped"]
    assert f"delay ms median {d['p50']:.3f} (p25 {d['p25']:.3f}, p75 {d['p75']:.3f})" in printed
    # A tail drop ends its tick's sends, so a drop with a later packet
    # sent in the same tick is a random loss. Loss is drawn once per
    # queued packet, so drops beyond the draws that struck among the
    # first sent_pkts are tail drops.
    packets = np.loadtxt(tmp_path / "lossy.packets.csv", delimiter=",", skiprows=1, dtype=str)
    sent_ms, dropped = packets[:, 0].astype(np.int64), packets[:, 3] == "1"
    same_tick_next = np.append(sent_ms[1:] == sent_ms[:-1], False)
    assert np.count_nonzero(dropped & same_tick_next) > 0
    draws = np.random.default_rng(derive_run_seed(1, trace.name, 0)).random(dropped.size)
    assert a["dropped"] == np.count_nonzero(dropped) > np.count_nonzero(draws < 0.05)


def test_fingerprint_writes_svg_with_csv_sibling(workspace, tmp_path):
    svg_path = tmp_path / "fp.svg"
    rc = main(
        [
            "fingerprint", "--model", str(workspace / "verus.model"),
            "--title", "verus fingerprint", "--out", str(svg_path),
        ]
    )
    assert rc == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "verus fingerprint" in svg
    csv_text = (tmp_path / "fp.csv").read_text().splitlines()
    assert csv_text[0].startswith("from/to,")
    assert len(csv_text) == 232


def test_fingerprint_rejects_an_svg_path_its_csv_would_overwrite(workspace, tmp_path, capsys):
    out = tmp_path / "fp.csv"
    rc = main(["fingerprint", "--model", str(workspace / "verus.model"), "--out", str(out)])
    assert rc == 1
    assert "overwritten by its own CSV" in capsys.readouterr().err
    assert not out.exists()


def test_fingerprint_of_empty_model_warns_but_succeeds(tmp_path, capsys):
    cfg = QuantizerConfig.uniform(-1, 1, -1, 1, n_d=2, n_w=2)
    path = tmp_path / "empty.model"
    with open(path, "wb") as fh:
        save_model(TransitionModel(cfg), fh)
    rc = main(["fingerprint", "--model", str(path), "--out", str(tmp_path / "e.svg")])
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    assert (tmp_path / "e.svg").exists()


def test_readme_lists_the_run_json_keys_the_code_writes(workspace):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"\(`<out>\.run\.json`: ([^)]*)\)", readme)
    written = json.loads((workspace / "native.run.json").read_text())
    assert re.findall(r"`(\w+)`", listed) == sorted(written)
    (mdi_only,) = re.findall(r"\(`mdi` only: ([^)]*)\)", readme)
    driven = json.loads((workspace / "driven.run.json").read_text())
    assert re.findall(r"`(\w+)`", mdi_only) == sorted(driven.keys() - written.keys())


def test_readme_names_only_flags_the_cli_has():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # The Install section's flags are pip's.
    outside_install = re.sub(r"\n## Install\n.*?(?=\n## )", "", readme, flags=re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", outside_install))
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        flag for p in commands.choices.values() for a in p._actions for flag in a.option_strings
    }
    assert named, "README names no flags"
    assert named <= options, f"README names flags no subcommand has: {sorted(named - options)}"
