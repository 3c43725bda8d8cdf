"""The one integer rule: every count, size, seed and index the package
takes is an integer (numpy's included, bools not) of at least a least
value, checked by mdi.cells.check_int before any work starts. And the
one real-number rule beside it: every real parameter is a finite real
number (numpy's included, bools not) in its interval, checked by
mdi.cells.check_real."""

import ast
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mdi import cli
from mdi.controllers import W_MAX_PKTS, CopaLike, Pinned, VerusLike
from mdi.linksim import LinkParams, PacketLog, run_samples
from mdi.markov import mixing_times, state_visits
from mdi.pipeline import derive_run_seed, train_on_traces
from mdi.quantizer import QuantizerConfig
from mdi.runtime import MdiController
from mdi.trace import (
    MAX_MTU_BYTES,
    LinkTrace,
    SyntheticTraceSpec,
    gen_rapidly_changing,
    load_trace,
)
from mdi.trainer import EpochLog, TransitionModel

SRC = Path(__file__).resolve().parents[1] / "src" / "mdi"

SPEC = SyntheticTraceSpec(duration_s=3, segment_s=0.5, rate_min_mbps=2, rate_max_mbps=20, seed=5)
TRACE = gen_rapidly_changing(SPEC)
GRID = QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=2, n_w=2)
LOG = EpochLog([20, 40, 60, 80], [10.0, 12.0, 11.0, 13.0], [2.0, 3.0, 4.0, 3.0])
PACKETS = PacketLog(
    sent_ms=np.array([0, 1]), delivered_ms=np.array([5, -1]),
    acked_ms=np.array([25, -1]), dropped=np.array([False, True]),
)


def _train(**kwargs):
    """train_on_traces over one short trace; a bad input must fail
    before the first run starts."""
    calls = []

    def make():
        calls.append(1)
        return VerusLike()

    try:
        return train_on_traces([("t", TRACE)], make, duration_ms=3000, **kwargs)
    except ValueError:
        assert not calls, "the input was checked only after a run started"
        raise


def _run_params(field):
    """cli._run_params on a run.json whose `field` is the value given."""

    def read(value):
        params = {"duration_ms": 8000, "mtu_bytes": 1500, field: value}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.run.json"
            path.write_text(json.dumps(params, default=int))
            return cli._run_params(path)

    return read


ENTRY_POINTS = [
    (lambda v: LinkParams(trace=TRACE, one_way_prop_ms=v), "one_way_prop_ms", 0),
    (lambda v: LinkParams(trace=TRACE, queue_capacity_pkts=v), "queue_capacity_pkts", 1),
    (lambda v: LinkParams(trace=TRACE, seed=v), "seed", 0),
    (lambda v: LinkParams(trace=TRACE, duration_ms=v), "duration_ms", 1),
    (lambda v: SyntheticTraceSpec(1, 1, 1, 2, seed=v), "seed", 0),
    (lambda v: MdiController(TransitionModel(GRID), seed=v), "seed", 0),
    (lambda v: MdiController(TransitionModel(GRID), epoch_ms=v), "epoch_ms", 1),
    (lambda v: Pinned(epoch_ms=v), "epoch_ms", 1),
    (lambda v: VerusLike(epoch_ms=v), "epoch_ms", 1),
    (lambda v: CopaLike(epoch_ms=v), "epoch_ms", 1),
    (lambda v: derive_run_seed(v, "t", 0), "master_seed", 0),
    (lambda v: derive_run_seed(7, "t", v), "index", 0),
    (_run_params("duration_ms"), "duration_ms", 1),
    (_run_params("mtu_bytes"), "mtu_bytes", 1),
    (lambda v: LinkTrace([0, 5], mtu_bytes=v), "mtu_bytes", 1),
    (lambda v: load_trace(io.BytesIO(b"0\n5\n"), mtu_bytes=v), "mtu_bytes", 1),
    (lambda v: gen_rapidly_changing(SPEC, mtu_bytes=v), "mtu_bytes", 1),
    (lambda v: run_samples(PACKETS, v, 1500), "duration_ms", 1),
    (lambda v: run_samples(PACKETS, 2000, v), "mtu_bytes", 1),
    (lambda v: _train(runs_per_trace=v), "runs_per_trace", 1),
    (lambda v: _train(n_d=v), "n_d", 2),
    (lambda v: _train(n_w=v), "n_w", 2),
    (lambda v: QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=v), "n_d", 2),
    (lambda v: QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_w=v), "n_w", 2),
    (lambda v: state_visits(LOG, GRID, discard=v), "discard", 0),
]


@pytest.mark.parametrize(
    "call, field, least", ENTRY_POINTS, ids=[f"{i}-{row[1]}" for i, row in enumerate(ENTRY_POINTS)]
)
def test_every_integer_input_takes_the_one_rule(call, field, least):
    for bad in (True, 1.5, "1", least - 1):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= {least}"):
            call(bad)
    call(np.int64(least))


MTU_ENTRY_POINTS = [row[0] for row in ENTRY_POINTS if row[1] == "mtu_bytes"]


@pytest.mark.parametrize("call", MTU_ENTRY_POINTS, ids=range(len(MTU_ENTRY_POINTS)))
def test_every_mtu_takes_the_one_upper_bound(call):
    for bad in (MAX_MTU_BYTES + 1, 2**63, 10**400):
        with pytest.raises(ValueError, match=f"mtu_bytes must be at most {MAX_MTU_BYTES}, got"):
            call(bad)
    call(np.int64(MAX_MTU_BYTES))


def test_the_mtu_bound_is_stated_once():
    calls = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if 'check_int("mtu_bytes"' in line
    ]
    assert calls == [("trace.py", '    mtu_bytes = cells.check_int("mtu_bytes", mtu_bytes, 1)')]
    assert len(MTU_ENTRY_POINTS) == 5


def test_training_rejects_a_bad_grid_or_run_count_before_its_first_run():
    for kwargs in (dict(n_d=1), dict(n_w=2.5), dict(runs_per_trace=True)):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            _train(**kwargs)


def test_a_run_seed_is_the_same_for_every_spelling_of_its_integers():
    assert derive_run_seed(np.int64(7), "t", np.int64(1)) == derive_run_seed(7, "t", 1)


# One row per real parameter: the call, the field its error names, the
# interval's lower bound and whether it is open, its upper bound, which
# is always open, and a value inside.
REAL_ENTRY_POINTS = [
    (lambda v: Pinned(window_pkts=v), "window_pkts", 1, False, W_MAX_PKTS, 1),
    (lambda v: VerusLike(w_init=v), "w_init", 1, False, W_MAX_PKTS, 1),
    (lambda v: CopaLike(w_init=v), "w_init", 1, False, W_MAX_PKTS, 1),
    (lambda v: MdiController(TransitionModel(GRID), w_init=v), "w_init", 1, False, W_MAX_PKTS, 1),
    (lambda v: VerusLike(lam=v), "lam", 1, False, math.inf, 1),
    (lambda v: VerusLike(dec_mult=v), "dec_mult", 0, True, 1, 0.5),
    (lambda v: VerusLike(rise_floor_ms=v), "rise_floor_ms", 0, False, math.inf, 0),
    (lambda v: VerusLike(inc_frac=v), "inc_frac", 0, False, math.inf, 0),
    (lambda v: CopaLike(velocity=v), "velocity", 0, True, math.inf, 1),
    (lambda v: MdiController(TransitionModel(GRID), c1=v), "c1", 1, True, math.inf, 2),
    (lambda v: MdiController(TransitionModel(GRID), c2=v), "c2", 0, True, 1, 0.5),
    (lambda v: LinkParams(trace=TRACE, loss_rate=v), "loss_rate", 0, False, 1, 0),
    (lambda v: SyntheticTraceSpec(v, 1, 1, 2, 0), "duration_s", -math.inf, False, 2**63 / 1000, 1),
    (lambda v: SyntheticTraceSpec(1, v, 1, 2, 0), "segment_s", 0, True, math.inf, 1),
    (lambda v: SyntheticTraceSpec(1, 1, v, 2, 0), "rate_min_mbps", 0, True, math.inf, 1),
    (lambda v: SyntheticTraceSpec(1, 1, 2, v, 0), "rate_max_mbps", 2, False, math.inf, 2),
    (lambda v: mixing_times(np.full((2, 2), 0.5), [v]), "epsilon", 0, True, math.inf, 1),
    (cli._duration_ms, "--duration", -math.inf, False, 2**63 / 1000, 1),
    (lambda v: QuantizerConfig.uniform(v, 2.0, -1.0, 1.0), "d_lo", -math.inf, False, math.inf, 1),
    (lambda v: QuantizerConfig.uniform(-2.0, v, -1.0, 1.0), "d_hi", -math.inf, False, math.inf, 1),
    (lambda v: QuantizerConfig.uniform(-1.0, 1.0, v, 2.0), "w_lo", -math.inf, False, math.inf, 1),
    (lambda v: QuantizerConfig.uniform(-1.0, 1.0, -2.0, v), "w_hi", -math.inf, False, math.inf, 1),
]


@pytest.mark.parametrize(
    "call, field, lo, open_lo, hi, inside",
    REAL_ENTRY_POINTS,
    ids=[f"{i}-{row[1]}" for i, row in enumerate(REAL_ENTRY_POINTS)],
)
def test_every_real_input_takes_the_one_rule(call, field, lo, open_lo, hi, inside):
    bad = [True, "1", None, math.nan, math.inf]
    if open_lo:
        bad.append(lo)
    elif lo > -math.inf:
        bad.append(math.nextafter(lo, -math.inf))
    if hi < math.inf:
        bad.append(hi)
    for value in bad:
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            call(value)
    call(np.float64(inside))
    if float(inside).is_integer():
        call(np.int64(inside))
    if hi < math.inf:
        call(math.nextafter(hi, -math.inf))


def _number_tests(tree: ast.AST):
    """The enclosing function's name for each numbers.Integral,
    numbers.Real and isinstance(..., bool) in a module, None at module
    level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        number = (isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real")) or (
            isinstance(node, ast.Name) and node.id in ("Integral", "Real")
        )
        is_bool = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        )
        if number or is_bool:
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_the_integer_rule_is_written_once():
    places = {
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func in _number_tests(ast.parse(path.read_text(encoding="utf-8")))
    }
    rules = {"check_int", "check_real", "_typed"}
    assert places == {("cells.py", func) for func in rules}
