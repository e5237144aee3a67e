"""Time-series export and run summaries.

One CSV row per (step, node) plus a per-step aggregate row, every numeric
field printed with enough digits to survive a parse round trip unchanged.
Identical runs therefore export byte-identical files.
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

# One row: step, node, p_D, the six per-node series, the three round
# counts. 17 significant digits: each float parses back to the exact same
# value.
_ROW = "%s,%s" + ",%.17g" * 7 + ",%d,%d,%d\n"


def write_timeseries_csv(record: SimulationRecord, path) -> None:
    """Write the per-step, per-node series with a trailing aggregate row per step."""
    series = (record.p_d, record.delta, record.p_G, record.p_F_net, record.p, record.p_e)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k in range(record.horizon):
            step, p_D = k + 1, float(record.p_D[k])
            iters = (int(record.coord_iters[k]), int(record.gen_iters[k]),
                     int(record.flow_iters[k]))
            rows = zip(*(x[k].tolist() for x in series))
            fh.writelines(
                _ROW % (step, i, p_D, *values, *iters) for i, values in enumerate(rows, start=1)
            )
            fh.write(_ROW % (step, "total", p_D, *(x[k].sum() for x in series), *iters))


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
