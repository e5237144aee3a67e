"""Peak resident memory of one scenario in a fresh process.

Reads a config document as JSON on stdin, runs it, exports the record into
the directory named by the only argument, and prints the process's peak
resident set size in MB (2**20 bytes).

    python3 perfbench/peak_rss.py OUT_DIR < scenario.json
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridconsensus import export_record, parse_config, run  # noqa: E402


def main() -> None:
    config = parse_config(json.loads(sys.stdin.read()))
    export_record(run(config), sys.argv[1])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)  # KiB on Linux


if __name__ == "__main__":
    main()
