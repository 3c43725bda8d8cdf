"""Decimal integer cells on byte arrays, and the package's number rules.

Trace files and packet CSVs are both decimal integer cells from 0 to
2**63 - 1, each closed by one separator byte. The rules for the bytes
around them (blanks, stray bytes, zero padding) are each file's own.
format_cells writes a column's cells in slots as wide as its largest
value, with one plain digit loop from right to left, one floor division
by 10 per digit; parse_fields reads them back with a Horner loop.

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


def format_cells(cols: list[np.ndarray], seps: str) -> bytes:
    """The text of equal-length integer columns, row by row: a cell of
    column i ends in the byte seps[i], and a negative one is blank.
    A digit is kept while the value left before its division is above 0
    (at least 0 for the last digit), and one boolean subscript keeps
    the bytes of the text.
    """
    widths = [len(str(int(col.max(initial=0)))) for col in cols]
    shape = (len(cols[0]), sum(widths) + len(cols))
    text = np.empty(shape, np.uint8)
    keep = np.empty(shape, bool)
    end = 0
    for col, width, sep in zip(cols, widths, seps):
        end += width + 1
        text[:, end - 1] = ord(sep)
        keep[:, end - 1] = True
        value = col
        for at in range(end - 2, end - 2 - width, -1):
            keep[:, at] = value >= 0 if at == end - 2 else value > 0
            rest = value // 10
            text[:, at] = value - rest * 10 + ord("0")
            value = rest
    return text[keep].tobytes()


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
