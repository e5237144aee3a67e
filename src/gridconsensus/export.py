"""Time-series export and run summaries.

One CSV row per (step, node) plus a per-step aggregate row, every numeric
field printed as ``'%.17g' % value``: enough digits to survive a parse
round trip unchanged. Identical runs therefore export byte-identical files.

The per-node values are rendered as arrays rather than one Python call per
value, with the exact bytes ``'%.17g'`` gives. For finite values with
1e-4 <= |v| < 1e16, ``%g`` uses fixed notation, and the 17 significant
digits are the integer nearest to |v| * 10**(16 - E), E the decimal
exponent of |v|. That product is formed without error as hi + lo
(Dekker's two-product, Numer. Math. 18, 1971): 10**s is an exact double for
s <= 22, and a, hi and lo stay far from overflow and underflow. E starts
from floor(log10|v|) and is corrected by comparing hi + lo exactly with
1e16 and 1e17 (both exact doubles), on ``lo`` where ``hi`` ties. Then
hi >= 1e16 > 2**53 is an even integer and |lo| <= ulp(hi) / 2, so
hi + rint(lo) is the nearest integer, with exact ties going to the even
one as ``rint`` does, and as CPython's correctly rounded ``%.17g`` does.
Zeros print as ``0``/``-0``; every other value (subnormals, tiny and huge
magnitudes, nan, inf) goes through ``'%.17g'`` itself.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .simulation import SimulationRecord

CSV_COLUMNS = (
    "k", "node", "p_D", "p_d", "delta_pG", "p_G",
    "p_F_net", "p_net", "p_e", "coord_iters", "gen_iters", "flow_iters",
)

TIMESERIES_FILENAME = "timeseries.csv"
SUMMARY_FILENAME = "summary.txt"

# The aggregate row: step, "total", p_D, the six per-step sums, the three
# round counts. Per-node rows carry the same fields in the same format.
_ROW = "%s,%s" + ",%.17g" * 7 + ",%d,%d,%d\n"

# Node rows rendered per array call; bounds the temporaries at any n.
_CHUNK_ROWS = 512

# Longest '%.17g' text: "-2.2250738585072014e-308".
_WIDTH = 24
_DIGITS = 17
_E_LO, _E_HI = -4, 16  # decimal exponents of the fast path, after any carry
_ZERO_ROW = _E_HI - _E_LO + 1  # the layout's exponent slot for +-0

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit significands
_POW10 = np.array([float(10**s) for s in range(23)])  # exact doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# A value's source row: its 17 digit characters, then these four bytes.
_FILL = np.frombuffer(b"-0.\0", dtype=np.uint8)
_MINUS, _ZERO, _POINT, _PAD = range(_DIGITS, _DIGITS + 4)
_SOURCE = _DIGITS + len(_FILL)
# Digit places, 1-based, of the high 8 and the low 9 digits.
_PLACE_TOP = np.arange(1, 9, dtype=np.uint8)[:, None]
_PLACE_LOW = np.arange(9, _DIGITS + 1, dtype=np.uint8)[:, None]


def _layout() -> np.ndarray:
    """Source column of every output byte, transposed: one column per
    (sign, decimal exponent or zero, significant digits once trailing zeros
    are stripped)."""
    table = np.full((2, _ZERO_ROW + 1, _DIGITS + 1, _WIDTH), _PAD, dtype=np.uint8)
    for sign in (0, 1):
        table[sign, _ZERO_ROW, :, :sign + 1] = [_MINUS] * sign + [_ZERO]
        for e in range(_E_LO, _E_HI + 1):
            for m in range(1, _DIGITS + 1):
                cols = [_MINUS] * sign
                if e >= 0:
                    kept = max(m, e + 1)  # integer digits stay, zeros or not
                    cols += range(e + 1)
                    if kept > e + 1:
                        cols += [_POINT, *range(e + 1, kept)]
                else:
                    cols += [_ZERO, _POINT, *[_ZERO] * (-e - 1), *range(m)]
                table[sign, e - _E_LO, m, :len(cols)] = cols
    return np.ascontiguousarray(table.reshape(-1, _WIDTH).T)


_LAYOUT = _layout()


def _two_product(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * 10**s exactly (Dekker)."""
    hi = a * _POW10[s]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _g17(values: np.ndarray) -> np.ndarray:
    """Row i: the bytes of ``'%.17g' % values[i]``, NUL-padded to 24."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, 16 - e)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        hi[moved], lo[moved] = _two_product(a[moved], 16 - e[moved])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = np.flatnonzero(digits == 10**17)  # 999...9.5 and up; a guard
    if carry.size:
        digits[carry] = 10**16
        e[carry] += 1

    # Digits of the high 8 and the low 9 side by side, 9 places each
    # (the high half's first is 0): contiguous uint32 math by scalars.
    top = digits // 10**9
    x = np.concatenate([top, digits - top * 10**9]).astype(np.uint32)
    place = np.empty((9, 2 * n), dtype=np.uint8)
    for j in range(8, -1, -1):
        rest = x // 10
        np.subtract(x, rest * 10, out=place[j], casting="unsafe")
        x = rest
    nonzero = place != 0
    kept = np.maximum(
        np.max(nonzero[1:, :n] * _PLACE_TOP, axis=0),
        np.max(nonzero[:, n:] * _PLACE_LOW, axis=0),
    )
    place += ord("0")
    source = np.empty((n, _SOURCE), dtype=np.uint8)
    source[:, :8] = place[1:, :n].T
    source[:, 8:_DIGITS] = place[:, n:].T
    source[:, _DIGITS:] = _FILL

    exponent = np.where(v == 0, _ZERO_ROW, e - _E_LO)
    key = (np.signbit(v) * (_ZERO_ROW + 1) + exponent) * (_DIGITS + 1) + kept
    # One flat take, in three bands of output bytes to bound the index.
    starts = np.arange(0, n * _SOURCE, _SOURCE)
    out = np.empty((_WIDTH, n), dtype=np.uint8)
    for band in range(0, _WIDTH, 8):
        index = _LAYOUT[band:band + 8].take(key, axis=1) + starts
        out[band:band + 8] = source.ravel().take(index)
    out = out.T

    other = np.flatnonzero(~fast & (v != 0))
    if other.size:
        text = ["%.17g" % x for x in v[other].tolist()]
        out[other] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out


def _text(strings) -> np.ndarray:
    """One NUL-padded row of bytes per string."""
    block = np.array(strings, dtype=np.bytes_)
    return block.view(np.uint8).reshape(len(block), block.dtype.itemsize)


def _numbers(n: int) -> np.ndarray:
    """The text of 1..n, one NUL-padded row each, with no Python object per row."""
    return _text(np.arange(1, n + 1).astype(f"S{len(str(n))}"))


def _fields(values: np.ndarray) -> np.ndarray:
    """Each value of the (rows, cols) array as ``,%.17g``, NUL-padded."""
    rows, cols = values.shape
    out = np.empty((rows * cols, 1 + _WIDTH), dtype=np.uint8)
    out[:, 0] = ord(",")
    out[:, 1:] = _g17(values)
    return out.reshape(rows, -1)


def _lines(*blocks: np.ndarray) -> np.ndarray:
    """The blocks side by side, a one-row block repeated on every row, with
    the padding dropped: the bytes of the lines."""
    rows = max(len(b) for b in blocks)
    mat = np.concatenate([np.broadcast_to(b, (rows, b.shape[1])) for b in blocks], axis=1)
    return mat[mat != 0]


def write_table_csv(path, columns, values) -> None:
    """Write a CSV: the header ``columns``, then per row of the (rows, cols)
    ``values`` its 1-based number and each value as ``%.17g``."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("ascii"))
        fh.write(_lines(_numbers(len(values)), _fields(values), _text([b"\n"])))


def write_timeseries_csv(record: SimulationRecord, path) -> None:
    """Write the per-step, per-node series with a trailing aggregate row per step."""
    series = (record.p_d, record.delta, record.p_G, record.p_F_net, record.p, record.p_e)
    nodes = _numbers(record.n)
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode("ascii"))
        for k in range(record.horizon):
            step, p_D = k + 1, float(record.p_D[k])
            iters = (int(record.coord_iters[k]), int(record.gen_iters[k]),
                     int(record.flow_iters[k]))
            head = _text([b"%d," % step])
            demand = _text([b",%.17g" % p_D])
            tail = _text([b",%d,%d,%d\n" % iters])
            for lo in range(0, record.n, _CHUNK_ROWS):
                values = np.stack([x[k, lo:lo + _CHUNK_ROWS] for x in series], axis=1)
                fh.write(_lines(head, nodes[lo:lo + _CHUNK_ROWS], demand, _fields(values), tail))
            total = _ROW % (step, "total", p_D, *(x[k].sum() for x in series), *iters)
            fh.write(total.encode("ascii"))


def summarize(record: SimulationRecord) -> str:
    """Human-readable run summary: worst-case errors, balance, and rounds."""
    failed = [a.step for a in record.audits if not a.passed]
    lines = [
        f"mode:                 {record.mode}",
        f"steps:                {record.horizon}",
        f"nodes:                {record.n}",
        f"max |error|:          {record.max_abs_error:.6e}",
        f"max balance residual: {record.max_balance_residual:.6e}",
        f"max flow magnitude:   {float(np.max(np.abs(record.p_F_net), initial=0.0)):.6e}",
        f"max consensus rounds: {record.max_iters_used}"
        f" (coordination {int(record.coord_iters.max(initial=0))},"
        f" generation {int(record.gen_iters.max(initial=0))},"
        f" flow {int(record.flow_iters.max(initial=0))})",
    ]
    if failed:
        lines.append(f"audits:               FAILED at steps {failed}")
    else:
        lines.append(f"audits:               all {record.horizon} steps passed")
    return "\n".join(lines) + "\n"


def export_record(record: SimulationRecord, out_dir) -> tuple[Path, Path]:
    """Write timeseries.csv and summary.txt under out_dir; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / TIMESERIES_FILENAME
    summary_path = out / SUMMARY_FILENAME
    write_timeseries_csv(record, csv_path)
    summary_path.write_text(summarize(record), encoding="utf-8")
    return csv_path, summary_path
