"""Time-series export and run summaries.

One CSV row per (step, node) plus a per-step aggregate row, every numeric
field printed as ``'%.17g' % value``: enough digits to survive a parse
round trip unchanged. Identical runs therefore export byte-identical files.

The per-node values are rendered as arrays rather than one Python call per
value, with the exact bytes ``'%.17g'`` gives. A finite nonzero value prints
as 17 significant digits D, 10**16 <= D < 10**17, and a decimal exponent E:
D is the integer nearest to |v| * 10**s, s = 16 - E, exact ties going to
the even one, as CPython's correctly rounded ``%.17g`` does. ``%g`` writes
fixed notation for -4 <= E <= 16 and ``d.ddde-XX`` below. E is read from a
table of the least double ``%.17g`` prints at each exponent, so it is exact
and D needs no second pass. Two array paths form D:

- 1e-4 <= |v| < 1e16, where 10**s (s <= 20) is an exact double: the
  product is hi + lo without error (Dekker's two-product, Numer. Math. 18,
  1971; a, hi and lo stay far from overflow and underflow). As
  hi + lo >= 10**16 - 1/2, hi >= 10**16 > 2**53 is an even integer and
  |lo| <= ulp(hi) / 2, so hi + rint(lo) is D, ``rint`` rounding ties to
  even.
- E = -24 .. -5, where s runs to 40, past the exact doubles 10**22: the
  integer route of Ryu (Adams, PLDI 2018). |v| = m * 2**q with m < 2**53
  read from the bits, so |v| * 10**s = m * 5**s * 2**(q + s). 5**s < 2**93
  is tabled shifted to T in [2**92, 2**93), three 31-bit limbs;
  m * 2**6 < 2**59 is two. Each partial product and column sum stays below
  2**63 in uint64, so carrying the columns gives exactly the low 31 bits
  of each and c = floor(P / 2**93) of P = m * 2**6 * T. The exponent table
  puts |v| * 10**s = P / 2**(94 + j) with 0 <= j <= 4, so g = c >> j is
  floor(2 * |v| * 10**s): D and a guard bit. D rounds up when the guard
  bit is set and so is D's last bit or a sticky bit: one of c's low j
  bits or of the low 93 bits of P.

Zeros print as ``0``/``-0``; every other value (subnormals, |v| below the
first double printed at e-24, |v| >= 1e16, nan, inf) goes through
``'%.17g'`` itself.
"""

from __future__ import annotations

import math
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
_E_LO, _E_HI = -24, 15  # decimal exponents of the array paths


def _decade(e: int) -> float:
    """The least double that ``'%.17g'`` prints at decimal exponent e or above."""
    x = float(f"99999999999999999.5e{e - 17}")  # 10**e less half a 17th digit
    return x if ("%.16e" % x).endswith(f"e{e:+03d}") else math.nextafter(x, math.inf)


# A value's slot: 0 below the first decade, 1 + E - _E_LO for E = _E_LO ..
# _E_HI, then one for 1e16 and up, inf and nan.
_DECADES = np.array([_decade(e) for e in range(_E_LO, _E_HI + 2)])
_EXPONENTS = range(_E_LO - 1, _E_HI + 2)  # E by slot
_SLOTS = len(_EXPONENTS)
_FIXED = _EXPONENTS.index(-4)  # the first fixed-notation slot

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit significands
# 10**(16 - E) by fixed-notation slot, an exact double; 1 in the others.
_POW10 = np.array([float(10 ** (16 - e)) if e >= -4 else 1.0 for e in _EXPONENTS])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

_M31 = 2**31 - 1


def _pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """By exponent-form slot, with s = 16 - E: the three 31-bit limbs of
    T = 5**s << t in [2**92, 2**93), and 1075 + 6 + t - s - 94, which less
    the biased binary exponent of |v| is j (module docstring)."""
    limbs = np.zeros((3, _FIXED), dtype=np.uint64)
    shift = np.zeros(_FIXED, dtype=np.uint64)
    for slot in range(1, _FIXED):
        s = 16 - _EXPONENTS[slot]
        t = 93 - (5**s).bit_length()
        limbs[:, slot] = [(5**s << t) >> 31 * k & _M31 for k in range(3)]
        shift[slot] = 1075 + 6 + t - s - 94
    return limbs, shift


_POW5, _SHIFT = _pow5_tables()

# A value's source row: its 17 digit characters, then these bytes.
_FILL = np.frombuffer(b"-.e\x000123456789", dtype=np.uint8)
_MINUS, _POINT, _EXP, _PAD, _ZERO = range(_DIGITS, _DIGITS + 5)  # digit d: _ZERO + d
_SOURCE = _DIGITS + len(_FILL)
# Digit places, 1-based, of the high 8 and the low 9 digits.
_PLACE_TOP = np.arange(1, 9, dtype=np.uint8)[:, None]
_PLACE_LOW = np.arange(9, _DIGITS + 1, dtype=np.uint8)[:, None]


def _layout() -> np.ndarray:
    """Source column of every output byte: one row per (sign, slot,
    significant digits once trailing zeros are stripped)."""
    table = np.full((2, _SLOTS, _DIGITS + 1, _WIDTH), _PAD, dtype=np.uint8)
    for sign in (0, 1):
        table[sign, 0, :, :sign + 1] = [_MINUS] * sign + [_ZERO]  # +-0
        for slot in range(1, _SLOTS - 1):
            e = _EXPONENTS[slot]
            for m in range(1, _DIGITS + 1):
                cols = [_MINUS] * sign
                if e >= 0:
                    kept = max(m, e + 1)  # integer digits stay, zeros or not
                    cols += range(e + 1)
                    if kept > e + 1:
                        cols += [_POINT, *range(e + 1, kept)]
                elif e >= -4:
                    cols += [_ZERO, _POINT, *[_ZERO] * (-e - 1), *range(m)]
                else:
                    cols += [0, *[_POINT] * (m > 1), *range(1, m)]
                    cols += [_EXP, _MINUS, _ZERO + -e // 10, _ZERO + -e % 10]
                table[sign, slot, m, :len(cols)] = cols
    return table.reshape(-1, _WIDTH)


_LAYOUT = _layout()


def _two_product(a: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi + lo == a * _POW10[slot] exactly (Dekker)."""
    hi = a * _POW10[slot]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[slot], _POW10_LO[slot]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _pow5_digits(a: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """D of each a in an exponent-form slot, from 31-bit limbs (module docstring)."""
    bits = a.view(np.uint64)
    m = ((bits & 2**52 - 1) | 2**52) << 6
    t = _POW5.take(slot, axis=1)
    lo = (m & _M31) * t
    hi = (m >> 31) * t
    lo[1:] += hi[:2]  # the columns at 2**31 and 2**62
    c1 = lo[1] + (lo[0] >> 31)
    c2 = lo[2] + (c1 >> 31)
    c = hi[2] + (c2 >> 31)
    j = _SHIFT.take(slot) - (bits >> 52)
    g = c >> j
    sticky = ((c - (g << j)) | ((lo[0] | c1 | c2) << 33)) != 0
    return (g + (((g >> 1) & 1) | sticky)) >> 1


def _g17(values: np.ndarray) -> np.ndarray:
    """Row i: the bytes of ``'%.17g' % values[i]``, NUL-padded to 24."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    slot = np.searchsorted(_DECADES, a, side="right")
    fixed = (slot >= _FIXED) & (slot < _SLOTS - 1)
    hi, lo = _two_product(np.where(fixed, a, 1.0), slot)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    off = np.flatnonzero(~fixed & (v != 0))
    small = (slot[off] > 0) & (slot[off] < _FIXED)
    if small.any():
        rows = off[small]
        digits[rows] = _pow5_digits(a[rows], slot[rows])

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

    key = (np.signbit(v) * _SLOTS + slot) * (_DIGITS + 1) + kept
    # Flat takes of each output byte's source column plus its row's start,
    # 1024 values at a time to bound the index.
    starts = np.arange(0, n * _SOURCE, _SOURCE)[:, None]
    out = np.empty((n, _WIDTH), dtype=np.uint8)
    for first in range(0, n, 1024):
        band = slice(first, first + 1024)
        out[band] = source.ravel().take(_LAYOUT.take(key[band], axis=0) + starts[band])

    other = off[~small]
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
