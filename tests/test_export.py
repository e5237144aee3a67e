"""Exported time series: the exact bytes of timeseries.csv."""

from __future__ import annotations

import numpy as np

from gridconsensus import SimulationRecord, write_timeseries_csv


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
