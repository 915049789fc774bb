"""One workload process of the alpir benchmark.

run.py starts this file one or more times per run; it is not meant to
be called by hand. Set-up time runs from just before `import alpir` to
the first timed operation, so the clock starts here, before the modules
that import alpir are loaded.

The last line of standard output is one JSON object:
    {"correct", "attempted", "failed", "metrics", "summary",
     "records_sha256"}
The exit code is 0 when every correctness check held and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--inject-wrong-expected", action="store_true",
                   help="check outputs against a wrong expectation "
                        "(shows that the correctness gate fails)")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    """ru_maxrss of this process (KiB on Linux), in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import alpir  # noqa: F401  (timed as part of set-up)
    import alpir.cli  # noqa: F401
    import alpir.netsim  # noqa: F401
    import alpir.selfcheck  # noqa: F401
    if Path(alpir.__file__).resolve().parent != SRC / "alpir":
        print(f"error: alpir imported from {alpir.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "audit":
        import audit as workload
    else:
        import sessions as workload
    result = workload.run(args, t0)
    setup_s = result.pop("setup_s")
    if not args.trace:
        rss = peak_rss_mb()
        for figures in result["metrics"], result["summary"]:
            figures["setup_s"] = setup_s
            figures["peak_rss_MB"] = rss
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
