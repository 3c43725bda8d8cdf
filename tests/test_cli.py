"""End-to-end command-line workflows in a temporary workspace."""

import io
import json

import numpy as np
import pytest

from mdi import markov
from mdi.cli import main
from mdi.linksim import read_epoch_csv
from mdi.quantizer import QuantizerConfig
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
    assert packets[0] == "seq,sent_ms,delivered_ms,acked_ms,rtt_ms,dropped"
    assert len(packets) > 500


def test_native_and_model_driven_runs_share_one_epoch_layout(workspace):
    # A model-driven run's epoch log is the measurement alone, as a
    # native run's is; its states are derived where they are used.
    for name in ("native.csv", "driven.csv"):
        text = (workspace / name).read_text()
        assert text.partition("\n")[0] == "epoch_index,t_ms,delay_ms,window_pkts"
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
    # The model-driven controller is not trainable-on, and the parser
    # enforces the choice list before any work happens.
    with pytest.raises(SystemExit):
        main(
            [
                "train", "--traces", str(workspace / "traces"),
                "--controller", "mdi", "--out", str(tmp_path / "m"),
            ]
        )
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
    assert report["empty_rows_policy"] == "uniform"
    # Irreducibility is reported, not guaranteed, for desk-scale corpora:
    # observed rows may never target some never-visited states.
    assert isinstance(report["irreducible"], bool)
    pi = np.array(report["stationary"])
    assert pi.shape == (231,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
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


def test_compare_runs_reports_medians_and_delay_pdf(workspace, tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(
        [
            "compare", "--a", str(workspace / "driven.csv"),
            "--b", str(workspace / "native.csv"), "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["a"]["delivered"] > 0
    assert report["rel_diff_vs_b"]["throughput_median"] >= 0.0
    assert report["rel_diff_vs_b"]["delay_median"] >= 0.0
    pdf = report["delay_pdf"]
    assert len(pdf["edges"]) == 51
    assert sum(pdf["a"]) == pytest.approx(1.0)
    assert sum(pdf["b"]) == pytest.approx(1.0)


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
    assert report["epochs_used"] == len(log) - 1 - 5
    assert report["kl_empirical_vs_stationary"] == markov.kl_divergence(empirical, pi)
    assert report["max_abs_diff"] == markov.max_abs_diff(empirical, pi)
    assert report["kl_empirical_vs_stationary"] > 0.0
    assert 0.0 < report["max_abs_diff"] <= 1.0
    assert report["stationary"] == pi.tolist()


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
    }
    rc = main(["compare", "--a", str(out), "--b", str(out), "--out", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["a"]["throughput_mbps"]["p50"] == 2.0


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
