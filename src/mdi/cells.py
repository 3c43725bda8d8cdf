"""Decimal integer cells on byte arrays, and the package's number rules.

Trace files and packet CSVs are both decimal integer cells from 0 to
2**63 - 1, each closed by one separator byte. The rules for the bytes
around them (blanks, stray bytes, zero padding) are each file's own.

Every number a caller passes is checked before any work starts by one
of two rules: check_int (an integer of at least a least value) or
check_real (a finite real number in [lo, hi), or (lo, hi)); bools are
neither. check_ints and check_reals are their dtype rules for arrays.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# 2**63 - 1 has 19 digits; a field's value is read from its last 19.
MAX_DIGITS = 19
# The writer lays each cell out in 4-byte words, one per 3-digit group,
# most significant first. A leading group's word is a spare byte and the
# group's digits; the last group's word is its digits and the separator
# after the cell. A cell of d digits (0 for a blank) then keeps the bytes
# _KEEP_WORDS marks: its last d digits and the separator, in 7 words at most.
_MAX_GROUPS = -(-MAX_DIGITS // 3)
_GROUP_DIGITS = np.frombuffer(b"".join(b"%03d" % k for k in range(1000)), np.uint8).reshape(1000, 3)
_LEAD_WORDS = np.hstack([np.zeros((1000, 1), np.uint8), _GROUP_DIGITS]).view(np.uint32).ravel()


def _keep_words() -> np.ndarray:
    """Keep masks of a 7-word cell layout: [word, digit count] -> word."""
    layout = np.arange(4 * _MAX_GROUPS).reshape(_MAX_GROUPS, 4)
    digit_at = np.concatenate([layout[:-1, 1:].ravel(), layout[-1, :3]])
    keep = np.zeros((MAX_DIGITS + 1, 4 * _MAX_GROUPS), np.uint8)
    keep[:, -1] = 1
    for d in range(1, MAX_DIGITS + 1):
        keep[d, digit_at[-d:]] = 1
    return np.ascontiguousarray(keep.view(np.uint32).T)


_KEEP_WORDS = _keep_words()
# Digit count of v >= 0 is the number of these at most v; a negative has 0.
_DIGIT_STEPS = np.array([0] + [10**k for k in range(1, MAX_DIGITS)])


def format_cells(cols: list[np.ndarray], seps: str) -> bytes:
    """The text of equal-length integer columns, row by row: a cell of
    column i ends in the byte seps[i], and a negative one is blank. Each
    cell's 3-digit groups are gathered as words from the group tables,
    and one boolean compress keeps the bytes of the text.
    """
    groups = [-(-len(str(int(col.max(initial=0)))) // 3) for col in cols]
    words = np.empty((len(cols[0]), sum(groups)), dtype=np.uint32)
    keep = np.empty_like(words)
    at = 0
    for col, g, sep in zip(cols, groups, seps):
        digits = np.searchsorted(_DIGIT_STEPS[: 3 * g], col, side="right")
        last = np.hstack([_GROUP_DIGITS, np.full((1000, 1), ord(sep), np.uint8)])
        table, rest = last.view(np.uint32).ravel(), col
        for j in reversed(range(g)):
            group = rest
            if j:
                rest = rest // 1000
                group = group - rest * 1000
            # A blank's groups are never kept; "wrap" gives them a word.
            words[:, at + j] = table.take(group, mode="wrap")
            keep[:, at + j] = _KEEP_WORDS[_MAX_GROUPS - g + j].take(digits)
            table = _LEAD_WORDS
        at += g
    return words.view(np.uint8)[keep.view(bool)].tobytes()


def parse_fields(text: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> tuple:
    """Values of the fields of a text, as uint64, and a mask of those at
    or above 2**63. Field i is the lengths[i] bytes of `text`, a uint8
    array, before index ends[i]. A byte that is not a digit gives its
    field a meaningless value, so the caller rejects such fields.
    """
    value = np.zeros(ends.size, dtype=np.uint64)
    # A Horner loop over digit positions counted back from each field's
    # end. Bytes counted back past a field's start are masked off; they
    # reach at most the longest field's length before the first field,
    # which still indexes `text`, from its end.
    longest = int(lengths.max(initial=0))
    first = min(longest, MAX_DIGITS)
    at = ends - first  # each field's byte `back` positions before its end
    for back in range(first, 0, -1):
        digit = text.take(at)
        at += 1
        digit -= ord("0")
        digit *= lengths >= back
        value *= 10
        value += digit
    over = value > np.uint64(2**63 - 1)
    # A byte other than "0" ahead of the last 19 puts a field past 2**63
    # too; one running count of such bytes checks every wide field.
    if longest > MAX_DIGITS:
        wide = np.flatnonzero(lengths > MAX_DIGITS)
        nonzero = np.concatenate([[0], np.cumsum(text != ord("0"))])
        end = ends[wide]
        over[wide] |= nonzero[end - MAX_DIGITS] != nonzero[end - lengths[wide]]
    return value, over


def check_int(name: str, value, least: int) -> int:
    """`value` as an int, if it is an integer (numpy's included, bools
    not) of at least `least`; otherwise a ValueError naming `name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value, lo=-math.inf, hi=math.inf, *, open_lo: bool = False) -> float:
    """`value` as a float, if it is a real number (numpy's included,
    bools not) that is finite, at least `lo` (above it, given open_lo)
    and below `hi`; otherwise a ValueError naming `name`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (real and (lo < value if open_lo else lo <= value) and value < hi):
        interval = f"{'(' if open_lo or lo == -math.inf else '['}{lo}, {hi})"
        raise ValueError(f"{name} must be a finite real number in {interval}, got {value!r}")
    return float(value)


def _typed(name: str, values, kinds: str, noun: str) -> np.ndarray:
    """`values` as an array, if it is empty, or its dtype kind is one of
    `kinds` and no cell is a bool; otherwise a ValueError naming the
    first bad cell."""
    arr = np.asarray(values)
    if not arr.size or (arr.dtype.kind in kinds and isinstance(values, np.ndarray)):
        return arr
    flat = np.asarray(values, dtype=object).ravel()
    if arr.dtype.kind not in kinds:
        first, got = 0, f"dtype {arr.dtype}"
    else:
        # numpy gives a sequence's bools the dtype of the numbers beside them.
        is_bool = [isinstance(v, (bool, np.bool_)) for v in flat]
        if not any(is_bool):
            return arr
        first, got = is_bool.index(True), "a bool"
    cell = ", ".join(map(str, np.unravel_index(first, arr.shape)))
    raise ValueError(f"{name} must be {noun}, got {got}: {name}[{cell}] is {flat[first]!r}")


def check_ints(name: str, values, least: int | None = None) -> np.ndarray:
    """`values` as an array, if it has an integer dtype (bools not) and,
    given `least`, no cell below it; empty input passes whatever its
    dtype. A ValueError names the first bad cell."""
    arr = _typed(name, values, "iu", "integers")
    if least is not None and arr.size:
        bad = arr < least
        if bad.any():
            first = int(np.argmax(bad))
            cell = ", ".join(map(str, np.unravel_index(first, arr.shape)))
            raise ValueError(f"{name} must be >= {least}: {name}[{cell}] is {arr.item(first)!r}")
    return arr


def check_reals(name: str, values) -> np.ndarray:
    """`values` as an array, if it has an integer or float dtype (bools,
    strings, objects and complex not); empty input passes whatever its
    dtype. A ValueError names the first cell. The value rules are each
    caller's own."""
    return _typed(name, values, "iuf", "real numbers")
