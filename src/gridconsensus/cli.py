"""Command-line entry points: validate, coordinate, run.

Exit codes are part of the contract: 0 success, 1 domain or validation
failure, 2 I/O or document-parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import load_config
from .coordination import coordinate_closed_form, coordinate_distributed
from .errors import GridConsensusError
from .export import export_record, summarize, write_table_csv
from .simulation import (
    MODE_WITH,
    MODE_WITHOUT,
    DemandSpec,
    DesiredSpec,
    ScenarioConfig,
    generate_demand_profile,
    generate_desired_profile,
    run,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridconsensus",
        description="Consensus-based supply-demand balancing over a power grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario config and report margins")
    p_val.add_argument("--config", required=True, help="scenario JSON file")
    p_val.set_defaults(handler=cmd_validate)

    p_coord = sub.add_parser(
        "coordinate", help="split one demand value into per-node targets"
    )
    p_coord.add_argument("--config", required=True, help="scenario JSON file")
    p_coord.add_argument("--demand", required=True, type=float, help="total demand to split")
    p_coord.add_argument("--out", help="also write the comparison table as CSV")
    p_coord.set_defaults(handler=cmd_coordinate)

    p_run = sub.add_parser("run", help="simulate a scenario and export its time series")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument(
        "--mode", choices=("with", "without"),
        help="override the config mode; the new regime gets a seeded profile source",
    )
    p_run.add_argument(
        "--continue-on-audit-failure", action="store_true",
        help="record audit failures instead of aborting at the first one",
    )
    p_run.set_defaults(handler=cmd_run)
    return parser


def _profile_report(config: ScenarioConfig) -> list[str]:
    """Realizability lines for whichever profile source the config uses."""
    lower, upper = config.capacities.total_gen_lo, config.capacities.total_gen_hi
    lines = []
    if config.demand is not None:
        profile = generate_demand_profile(
            config.demand, config.capacities, config.horizon, config.seed
        )
        if config.demand.kind == "explicit":
            lines.append(
                f"demand:     explicit, {len(profile)} steps, "
                f"worst margins: {profile.min() - lower:g} above the floor, "
                f"{upper - profile.max():g} below the ceiling"
            )
        else:
            lines.append(f"demand:     seeded, uniform over [{lower:g}, {upper:g}]")
    if config.desired is not None:
        rows = generate_desired_profile(
            config.desired, config.capacities, config.horizon, config.seed
        )
        sums = rows.sum(axis=1)
        lines.append(
            f"desired:    {config.desired.kind}, {rows.shape[0]} steps x "
            f"{rows.shape[1]} nodes, sums within [{sums.min():g}, {sums.max():g}] "
            f"of realizable [{lower:g}, {upper:g}]"
        )
    return lines


def cmd_validate(args) -> int:
    config = load_config(args.config)
    caps = config.capacities
    print(f"config:     {args.config}")
    print(
        f"scenario:   {config.mode}, horizon {config.horizon}, "
        f"seed {config.seed}, leader node {config.leader}"
    )
    print(
        f"topology:   {config.topology.n} nodes, "
        f"{len(config.topology.edges)} edges, connected"
    )
    print(
        f"capacities: consistent; aggregate generation interval "
        f"[{caps.total_gen_lo:g}, {caps.total_gen_hi:g}]"
    )
    for line in _profile_report(config):
        print(line)
    print("all checks passed")
    return 0


def cmd_coordinate(args) -> int:
    config = load_config(args.config)
    caps = config.capacities
    closed = coordinate_closed_form(args.demand, caps)
    dist = coordinate_distributed(
        args.demand, caps, config.topology,
        leader=config.leader, criteria=config.criteria,
    )
    gap = np.abs(closed.desired - dist.desired)
    print(f"demand {args.demand:g} split over {caps.n} nodes "
          f"(leader {config.leader}, {dist.iters} consensus rounds)")
    print(f"{'node':>4}  {'closed-form':>18}  {'distributed':>18}  {'|difference|':>12}")
    for i in range(caps.n):
        print(f"{i + 1:>4}  {closed.desired[i]:>18.12f}  "
              f"{dist.desired[i]:>18.12f}  {gap[i]:>12.3e}")
    print(f"{'sum':>4}  {closed.desired.sum():>18.12f}  "
          f"{dist.desired.sum():>18.12f}  {np.max(gap):>12.3e}")
    if args.out:
        write_table_csv(
            args.out, ("node", "closed_form", "distributed", "abs_difference"),
            np.column_stack((closed.desired, dist.desired, gap)),
        )
        print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.mode is not None:
        target = MODE_WITH if args.mode == "with" else MODE_WITHOUT
        if target != config.mode:
            if target == MODE_WITH:
                config = replace(
                    config, mode=target, desired=None,
                    demand=DemandSpec(),
                )
            else:
                config = replace(
                    config, mode=target, demand=None,
                    desired=DesiredSpec(),
                )
    if args.continue_on_audit_failure:
        config = replace(config, fail_fast=False)

    record = run(config)
    csv_path, summary_path = export_record(record, args.out)
    print(summarize(record), end="")
    print(f"wrote {csv_path} and {summary_path}")
    return 0 if record.all_audits_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GridConsensusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
