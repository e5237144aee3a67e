"""Exported time series: the exact bytes of timeseries.csv."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridconsensus import (
    SimulationRecord,
    default_config_path,
    export_record,
    load_config,
    parse_config,
    run,
    write_timeseries_csv,
)
from gridconsensus.export import _g17

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def test_timeseries_csv_golden(tmp_path):
    # Two nodes, two steps, with values whose 17-digit forms are easy to get
    # wrong: a signed zero, non-terminating binary fractions, a tiny
    # normal, and 2**53 + 1.0, which rounds to 2**53.
    third = 1.0 / 3.0
    big = 2.0**53 + 1.0
    record = SimulationRecord(
        mode="without-coordination",
        p_D=np.array([0.1, 2.0]),
        p_d=np.array([[-0.0, 0.1], [1e-300, 1e-300]]),
        delta=np.array([[third, 1e-300], [-0.0, -0.0]]),
        p_G=np.array([[big, 1.0], [3.0, -1.0]]),
        p_F_net=np.array([[0.5, -0.5], [0.1, 0.2]]),
        p=np.array([[1.5, -0.0], [0.1, 0.2]]),
        p_e=np.array([[0.0, 0.25], [third, -third]]),
        coord_iters=np.array([7, 0]),
        gen_iters=np.array([0, 12]),
        flow_iters=np.array([0, 345]),
        audits=(),
    )
    path = tmp_path / "timeseries.csv"
    write_timeseries_csv(record, path)
    assert path.read_bytes().decode("utf-8") == (
        "k,node,p_D,p_d,delta_pG,p_G,p_F_net,p_net,p_e,coord_iters,gen_iters,flow_iters\n"
        "1,1,0.10000000000000001,-0,0.33333333333333331,9007199254740992,0.5,1.5,0,7,0,0\n"
        "1,2,0.10000000000000001,0.10000000000000001,1e-300,1,-0.5,-0,0.25,7,0,0\n"
        "1,total,0.10000000000000001,0.10000000000000001,0.33333333333333331,"
        "9007199254740992,0,1.5,0.25,7,0,0\n"
        "2,1,2,1e-300,-0,3,0.10000000000000001,0.10000000000000001,"
        "0.33333333333333331,0,12,345\n"
        "2,2,2,1e-300,-0,-1,0.20000000000000001,0.20000000000000001,"
        "-0.33333333333333331,0,12,345\n"
        "2,total,2,2.0000000000000001e-300,0,2,0.30000000000000004,0.30000000000000004,"
        "0,0,12,345\n"
    )

    # One step, three nodes, on the edges of the array formatter's fixed
    # notation path: 1e-4 (in) and the double below it (out, exponent form),
    # the double below 1e16 (in) and 1e16 (out), exact decimal ties that
    # round half to even (…345.625 down, …456.25 down, …456.75 up), and -0
    # beside fixed-path values.
    record = SimulationRecord(
        mode="without-coordination",
        p_D=np.array([150.0]),
        p_d=np.array([[1e-4, math.nextafter(1e-4, 0.0), -0.0]]),
        delta=np.array([[math.nextafter(1e16, 0.0), 1e16, 123456789012345.625]]),
        p_G=np.array([[-123456789012345.625, 1234567890123456.25, 0.125]]),
        p_F_net=np.array([[-1e-4, 99999.999999999985, -9.5]]),
        p=np.array([[0.00012345678901234567, 1.0000000000000002, -1234567890123456.75]]),
        p_e=np.array([[-0.0, 2.5, 1e15 + 0.5]]),
        coord_iters=np.array([0]),
        gen_iters=np.array([23]),
        flow_iters=np.array([31]),
        audits=(),
    )
    write_timeseries_csv(record, path)
    assert path.read_bytes().decode("utf-8") == (
        "k,node,p_D,p_d,delta_pG,p_G,p_F_net,p_net,p_e,coord_iters,gen_iters,flow_iters\n"
        "1,1,150,0.0001,9999999999999998,-123456789012345.62,-0.0001,"
        "0.00012345678901234567,-0,0,23,31\n"
        "1,2,150,9.9999999999999991e-05,10000000000000000,1234567890123456.2,"
        "99999.999999999985,1.0000000000000002,2.5,0,23,31\n"
        "1,3,150,-0,123456789012345.62,0.125,-9.5,-1234567890123456.8,"
        "1000000000000000.5,0,23,31\n"
        "1,total,150,0.00019999999999999998,20123456789012344,1111111101111110.8,"
        "99990.499899999981,-1234567890123455.8,1000000000000003,0,23,31\n"
    )


def _assert_g17(values) -> None:
    """Each row of ``_g17`` is the NUL-padded text of ``'%.17g' % v``."""
    values = np.asarray(values, dtype=np.float64)
    rows = _g17(values)
    assert rows.shape == (values.size, 24) and rows.dtype == np.uint8
    got = [row.tobytes().rstrip(b"\0") for row in rows]
    assert got == [("%.17g" % v).encode("ascii") for v in values.tolist()]


def test_g17_on_decimal_edges():
    powers = [x for p in range(-25, 18) for x in (10.0**p, float(f"1e{p}"))]
    edges = [
        *powers,
        *(math.nextafter(x, 0.0) for x in powers),
        *(math.nextafter(x, math.inf) for x in powers),
        1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e16,
        123456789012345.625, 0.5, 2.5, 0.1, 1.0 / 3.0, 2.0**53, 2.0**53 + 2.0,
        1.5e-12, 2.5e-20, 9.5e-7, 2.0**-20, 2.0**-25, 3.5527136788005009e-15,
        0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    ]
    _assert_g17(edges + [-x for x in edges])
    assert _g17(np.array([123456789012345.625]))[0].tobytes().rstrip(b"\0") == (
        b"123456789012345.62"
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_g17_matches_percent_format_on_raw_bit_patterns(bits):
    # Every double: nan payloads, infinities, signed zeros, subnormals.
    _assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(
    st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from((x, -x))),
    min_size=1, max_size=64,
))
def test_g17_matches_percent_format_on_the_fixed_notation_range(values):
    _assert_g17(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(
    st.floats(1e-24, 1e-4, exclude_max=True).flatmap(lambda x: st.sampled_from((x, -x))),
    min_size=1, max_size=64,
))
def test_g17_matches_percent_format_on_the_exponent_form_range(values):
    _assert_g17(values)


def test_g17_matches_percent_format_on_a_sweep_of_the_exponent_form_range():
    # 200 000 raw bit patterns spread over +-[1e-24, 1e-4)
    rng = np.random.default_rng(22)
    lo, hi = np.array([1e-24, 1e-4]).view(np.uint64)
    bits = rng.integers(lo, hi, 200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, bits.size, dtype=np.uint64) << 63
    # and each odd k < 2**10 over 2**e: with so few significant bits the
    # rounding's sticky bits can all lie above the low 93 of the product
    short = np.ldexp(np.arange(1, 2**10, 2.0), -np.arange(14, 100)[:, None]).ravel()
    values = np.concatenate([bits.view(np.float64), short[(short >= 1e-24) & (short < 1e-4)]])
    want = np.array(["%.17g" % x for x in values.tolist()], dtype="S24")
    got = np.ascontiguousarray(_g17(values)).view("S24").ravel()
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, values[wrong[:5]].tolist()


@st.composite
def _exact_ties(draw) -> float:
    """A double between 2**-25 and 2**51 whose exact decimal expansion has
    18 significant digits, the last a 5: a tie for 17-digit rounding. With
    ``digits`` integer digits (leading zeros after the point when <= 0) it
    is an odd integer over 2**(18 - digits). Below 2**-25 no double has so
    few: an odd integer over 2**j has j decimals."""
    digits = draw(st.integers(-7, 16))
    j = 18 - digits
    low = math.ceil(Fraction(10) ** (digits - 1) * 2**j)
    high = min(math.floor(Fraction(10) ** digits * 2**j), 2**53)
    return (2 * draw(st.integers(low // 2, (high - 1) // 2)) + 1) / 2**j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_exact_ties(), min_size=1, max_size=32))
def test_g17_rounds_exact_ties_half_to_even(values):
    for v in values:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    _assert_g17(values + [-v for v in values])


def test_csv_temporaries_stay_bounded_by_the_chunk(tmp_path):
    # 100 000 node rows in one step. A writer holding one step's values as
    # Python floats peaks at ~18 MB here; chunks of node rows keep ~1.5 MB,
    # 0.6 MB of it the text of the node numbers.
    rng = np.random.default_rng(0)
    n = 100_000
    series = rng.uniform(-60.0, 60.0, (6, 1, n))
    series[5] *= 1e-9  # residuals: the exponent form, through the limb path
    record = SimulationRecord(
        mode="without-coordination",
        p_D=np.array([150.0]),
        p_d=series[0], delta=series[1], p_G=series[2],
        p_F_net=series[3], p=series[4], p_e=series[5],
        coord_iters=np.array([0]), gen_iters=np.array([9]), flow_iters=np.array([11]),
        audits=(),
    )
    tracemalloc.start()
    try:
        write_timeseries_csv(record, tmp_path / "timeseries.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _scenario(name: str):
    """A shipped config, or a benchmark workload at seed 1 and the horizon
    the benchmark runs it at, built from ``perfbench/scenarios.py``."""
    if name in ("with", "without"):
        return load_config(default_config_path(name))
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", SCENARIOS)
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    horizon = 2 if name == "feeder-without" else 4
    return parse_config(json.loads(scenarios.workload_text(name, 1, horizon)))


# Per-step (coord_iters, gen_iters, flow_iters) of each pinned export.
_ROUNDS = {
    "with": (
        (26, 0, 0), (24, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (26, 0, 0), (25, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (25, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (25, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (25, 0, 0), (24, 0, 0), (26, 0, 0), (26, 0, 0), (26, 0, 0),
        (26, 0, 0), (26, 0, 0),
    ),
    "without": (
        (0, 25, 32), (0, 25, 32), (0, 24, 31), (0, 25, 32), (0, 24, 31),
        (0, 25, 32), (0, 24, 32), (0, 25, 33), (0, 25, 33), (0, 25, 32),
        (0, 24, 31), (0, 25, 32), (0, 25, 32), (0, 24, 31), (0, 25, 32),
        (0, 24, 31), (0, 25, 32), (0, 25, 32), (0, 24, 31), (0, 25, 32),
        (0, 24, 31), (0, 24, 31), (0, 25, 32), (0, 24, 31), (0, 26, 33),
        (0, 24, 31), (0, 24, 31), (0, 25, 32), (0, 25, 32), (0, 24, 31),
        (0, 24, 31), (0, 24, 31), (0, 24, 32), (0, 25, 32), (0, 24, 31),
        (0, 24, 32), (0, 25, 33), (0, 26, 33), (0, 25, 32), (0, 24, 31),
        (0, 25, 31), (0, 24, 31), (0, 25, 31), (0, 24, 32), (0, 25, 32),
        (0, 25, 33), (0, 23, 31), (0, 24, 32), (0, 24, 31), (0, 24, 31),
    ),
    "feeder-without": (
        (0, 582, 792), (0, 561, 779),
    ),
    "mesh-without": (
        (0, 34, 38), (0, 34, 38), (0, 34, 38), (0, 34, 38),
    ),
    "mesh-with": (
        (39, 0, 0), (40, 0, 0), (40, 0, 0), (39, 0, 0),
    ),
}


@pytest.mark.parametrize(
    ("name", "digest", "rounds"),
    [
        ("with", "599c38b04111f2cf", _ROUNDS["with"]),
        ("without", "1d278f890c6e7b88", _ROUNDS["without"]),
        ("feeder-without", "b43d7a1509c52c1d", _ROUNDS["feeder-without"]),
        ("mesh-without", "d5939ea0513e1687", _ROUNDS["mesh-without"]),
        ("mesh-with", "a82e7f6d90b4fd17", _ROUNDS["mesh-with"]),
    ],
    ids=["with", "without", "feeder-without", "mesh-without", "mesh-with"],
)
def test_shipped_export_is_pinned(tmp_path, name, digest, rounds):
    # On the measured spectral interval plain rounds fall behind the
    # Chebyshev bound within a few rounds on every topology here: the
    # shipped 6-node ring, the 120-node feeder and the 2000-node mesh. So
    # the bytes pin the Lanczos interval, the switch rule and the Chebyshev
    # rounds of every ratio and flow call; the mesh also pins the sparse
    # rounds and the export at benchmark scale, and with coordination the
    # seeded demand draw there too. A change here means the intervals, the
    # rounds, the seeded draws or the export format changed. The round
    # counts are pinned apart from the bytes: an interval that moves only
    # in its last digits changes the bytes but no count.
    record = run(_scenario(name))
    assert tuple(zip(record.coord_iters.tolist(), record.gen_iters.tolist(),
                     record.flow_iters.tolist())) == rounds
    csv_path, _ = export_record(record, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest()[:16] == digest


def test_repeated_runs_export_identical_bytes(tmp_path):
    # The first run measures the feeder's spectral intervals and keeps them
    # on the topology's shared weights; a second run reuses them, and a
    # freshly parsed config measures them again. All three export the same
    # bytes.
    config = _scenario("feeder-without")
    exports = []
    for k, cfg in enumerate((config, config, _scenario("feeder-without"))):
        csv_path, _ = export_record(run(cfg), tmp_path / str(k))
        exports.append(csv_path.read_bytes())
    assert exports[0] == exports[1] == exports[2]
