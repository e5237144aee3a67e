"""gridconsensus benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mesh-with --seed 3 --seconds 20 --trace 0

Builds the workload's config document from the seed (``scenarios.py``) and
hands it to the program only as JSON text. With ``--trace 0`` it reports
the end-to-end metrics: ``scenario_s``, the median wall time of ``run()``
plus ``export_record()``; ``setup_s``, the median time from JSON text to a
validated config; and ``peak_rss_mb`` of a fresh process running the
scenario. With ``--trace 1`` it spends half the time untraced and half
traced (``spans.py``) and reports the per-layer metrics. Every scenario
run is checked outside the timed region (``checks.py``); the steps that
fail count in ``failed`` of the last line, a JSON object. ``README.md``
explains the workloads and metrics.
"""

import os

# One BLAS thread: slower than two on a 2-vCPU machine, but steadier when
# other tenants share it (see README.md). Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "gridconsensus" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gridconsensus source under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
from gridconsensus import GridConsensusError, export_record, parse_config, run  # noqa: E402
from gridconsensus.export import TIMESERIES_FILENAME  # noqa: E402
from spans import Tracer  # noqa: E402

# Workload -> steps per scenario. A feeder step takes about 1.5 s, a mesh
# step about 0.3 s on a 2.1 GHz Xeon; both horizons average the per-step
# round counts over a few demand rows while leaving several samples a run.
WORKLOADS = {"feeder-without": 2, "mesh-without": 4, "mesh-with": 4}
MIN_SAMPLES = 3
SETUP_SHARE = 0.05
CHILD_TIMEOUT_S = 170


class Tally:
    """Steps attempted and failed, plus the CSV digest repeats must share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.digest_misses = 0

    def add(self, config, record, csv_path: Path) -> None:
        self.attempted += config.horizon
        if record is None:
            self.failed += config.horizon
            return
        bad = checks.failed_steps(config, record)
        digest = checks.file_digest(csv_path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.digest_misses += 1
            bad = config.horizon
        self.failed += bad


def _scenario(config, out_dir: Path, call=lambda name, fn, *args: fn(*args)):
    """One timed run() + export_record(); a raising run yields no record."""
    start = time.perf_counter()
    try:
        record = call("simulation.run", run, config)
        call("export.record", export_record, record, out_dir)
    except GridConsensusError as exc:
        print(f"scenario failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        record = None
    return time.perf_counter() - start, record


def _untraced(config, seconds, out_dir, tally, text=None) -> tuple[list[float], list[float]]:
    """Timed scenarios for ``seconds``. Given the config ``text``, each
    scenario is followed by set-up samples (JSON text to validated config)
    worth SETUP_SHARE of its time, so the set-up median covers the whole
    run rather than one moment of a machine whose speed drifts."""
    times, setup = [], []
    start = time.perf_counter()
    while len(times) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        elapsed, record = _scenario(config, out_dir)
        times.append(elapsed)
        tally.add(config, record, out_dir / TIMESERIES_FILENAME)
        budget = SETUP_SHARE * elapsed
        while text is not None and budget > 0:
            t0 = time.perf_counter()
            parse_config(json.loads(text))
            setup.append(time.perf_counter() - t0)
            budget -= setup[-1]
    return times, setup


def _traced(text, seconds, out_dir, tally) -> tuple[list[float], list[dict]]:
    times, layers = [], []
    start = time.perf_counter()
    while len(times) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        tracer = Tracer()
        with tracer.installed():
            config = tracer.call("config.parse", parse_config, (json.loads(text),))
            elapsed, record = _scenario(
                config, out_dir, lambda name, fn, *args: tracer.call(name, fn, args)
            )
        times.append(elapsed)
        tally.add(config, record, out_dir / TIMESERIES_FILENAME)
        if record is not None:
            tracer.check(record)
            layers.append(tracer.metrics())
    if not layers:
        raise RuntimeError("every traced scenario failed")
    return times, layers


def _peak_rss_mb(text, out_dir) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), str(out_dir)],
        input=text, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"peak-RSS process failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(text: str, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one config document; returns the result object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    config = parse_config(json.loads(text))
    notes = []
    if trace:
        untraced, _ = _untraced(config, seconds / 2, out_dir, tally)
        traced, layers = _traced(text, seconds / 2, out_dir, tally)
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.scenario_s"] = statistics.median(traced)
        values["trace.overhead_frac"] = values["trace.scenario_s"] / statistics.median(untraced) - 1
        notes.append(f"traced scenarios: {len(traced)}, untraced: {len(untraced)}")
    else:
        rss = _peak_rss_mb(text, out_dir)
        times, setup = _untraced(config, seconds, out_dir, tally, text)
        values = {
            "scenario_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        notes.append(f"scenario_s: median of {len(times)} scenarios "
                     f"(min {min(times):.4f} s, max {max(times):.4f} s)")
        notes.append(f"setup_s: median of {len(setup)} parses")
    fail_frac = tally.failed / tally.attempted
    notes.append(f"fail_frac {fail_frac:g} ({tally.failed} of {tally.attempted} steps failed; "
                 f"oracle, audit and CSV-hash checks ran; "
                 f"{tally.digest_misses} CSV digest mismatches)")
    units = _units()
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "notes": notes,
    }


def _blas_threads():
    """Thread count reported by the BLAS library numpy loaded, if known."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    text = scenarios.workload_text(args.workload, args.seed, WORKLOADS[args.workload])
    result = measure(text, args.seconds, bool(args.trace), HERE / ".out" / args.workload)
    doc = json.loads(text)
    print(f"env {json.dumps(environment())}")
    print(f"workload {args.workload} seed {args.seed}: {doc['mode']}, "
          f"{len(doc['nodes'])} nodes, {len(doc['edges'])} edges, horizon {doc['horizon']}")
    for note in result.pop("notes"):
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
