"""One workload in its own process: import, warm up, timed passes, optional traced pass.

Started by run.py with the checkout's ``src`` first on the path.  Writes one
JSON result file and nothing else; run.py turns it into the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_ITERATIONS = 500_000


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop of dict updates, independent of parafock.

    It runs between passes, so the ratio of a pass to the loops around it
    cancels the speed drift of a shared host, which moves both alike.
    """
    t = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - t


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent clock just before the spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import parafock

    setup_s = time.perf_counter() - args.t0
    if not Path(parafock.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"parafock imported from {parafock.__file__}, not this checkout", file=sys.stderr)
        return 3

    import tracer as tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.Ops()
    hashes: dict = {}

    def one_pass():
        return workloads.run_pass(args.workload, inputs, ops, hashes)

    warmup_s, _ = _timed(one_pass)
    pass_s: list[float] = []
    probe_s = [reference_loop()]
    suites: dict[str, list] = {}
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        seconds, info = _timed(one_pass)
        pass_s.append(seconds)
        probe_s.append(reference_loop())
        for name, (s, ratio) in info.items():
            suites.setdefault(name, []).append((s, ratio))

    result = {"setup_s": setup_s, "warmup_s": warmup_s, "pass_s": pass_s, "probe_s": probe_s}
    if args.trace:
        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        ops.tracer = tr
        try:
            traced_s, _ = _timed(one_pass)
        finally:
            ops.tracer = None
            uninstall()
        suite_figures = {
            name: (statistics.median(s for s, _ in rows), rows[-1][1]) for name, rows in suites.items()
        }
        overhead = traced_s - statistics.median(pass_s)
        result["layers"] = tracing.layer_metrics(tr, suite_figures, overhead)
        result["traced_s"] = traced_s
        result["top_self"] = tracing.top_self(tr)
        result["missing"] = tr.missing
        with open(args.spans, "w", encoding="utf-8") as handle:
            for s in tr.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.tail]) + "\n")
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = _threads()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
