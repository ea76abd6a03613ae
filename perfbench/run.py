"""Benchmark of the parafock verification engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints, per workload and by name with units, the
median wall time of one pass over the workload's inputs (``wall_s``), the
same pass time divided by a fixed reference loop timed around it
(``wall_ref``), the peak resident set of the process that ran only this
workload (``peak_rss_mb``), the time from interpreter start until ``import
parafock`` finished (``setup_s``), and the share of operations that failed
their gate or raised (``error_rate``).  The JSON line carries ``wall_ref``,
``peak_rss_mb`` and ``setup_s``.  With ``--trace 1`` the same passes
run untraced, then one more pass runs with spans around every public
function of each module, and the per-layer metrics come from that pass.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report, and
the spans of a traced run, are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

START = time.monotonic()
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SRC = ROOT / "src"
PACKAGE = SRC / "parafock"

WORKLOADS = ("battery", "oracle-edge", "triple-algebra", "special-functions")
END_TO_END = (("wall_ref", "ref"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
# Interpreter starts timed before and again after the worker, so set-up
# samples span the whole run, not one moment of it.
SETUP_SAMPLES = 4
DEADLINE_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_SNIPPET = (
    "import sys, time; import parafock; "
    "print(repr(time.perf_counter() - float(sys.argv[1])), parafock.__file__)"
)


def child_env() -> dict[str, str]:
    """Single-threaded numerics, the checkout's src first, PARAFOCK_THREADS unset."""
    env = dict(os.environ)
    env.pop("PARAFOCK_THREADS", None)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def remaining() -> float:
    return DEADLINE_S - (time.monotonic() - START)


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child to completion; it is killed and reaped if the deadline passes."""
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, remaining()))


def setup_samples(env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", SETUP_SNIPPET, repr(t0)], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import parafock failed:\n{proc.stderr}")
        seconds, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"parafock imported from {origin}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(env: dict) -> dict:
    """What the numbers depend on; the module line counts are informational only."""
    lines = {}
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        lines[path.stem] = data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
        "parafock_threads": env.get("PARAFOCK_THREADS"),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parafock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no parafock sources at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"worker-{os.getpid()}.json"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"

    try:
        setup = setup_samples(env) if args.trace == 0 else []
        t0 = time.perf_counter()
        proc = run_child(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--t0", repr(t0), "--result", str(result_path), "--spans", str(spans_path)],
            env,
        )
        if args.trace == 0 and proc.returncode == 0:
            setup += setup_samples(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    result_path.unlink()
    setup.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    wall = quartiles(result["pass_s"])
    probes = result["probe_s"]
    ref = quartiles([t / (0.5 * (a + b)) for t, a, b in zip(result["pass_s"], probes, probes[1:])])
    setup_q = quartiles(setup)
    env_info = environment(env)
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"  env: python {env_info['python']}, numpy {env_info['numpy']}, mpmath {env_info['mpmath']}, "
        f"nproc {env_info['nproc']}, git {env_info['git_sha'] or 'unavailable'}, "
        f"src {env_info['src_lines_total']} lines",
        f"  wall_s       {wall[1]:.6f} s    median of {len(result['pass_s'])} passes, "
        f"q1 {wall[0]:.6f} q3 {wall[2]:.6f}; warm-up {result['warmup_s']:.3f} s excluded",
        f"  wall_ref     {ref[1]:.6f} ref  median pass / reference loop, q1 {ref[0]:.6f} q3 {ref[2]:.6f}; "
        f"loop median {statistics.median(probes):.6f} s",
    ]
    if not args.trace:
        lines += [
            f"  peak_rss_mb  {result['peak_rss_mb']:.3f} MiB",
            f"  setup_s      {setup_q[1]:.6f} s    median of {len(setup)} interpreter starts, "
            f"q1 {setup_q[0]:.6f} q3 {setup_q[2]:.6f}",
        ]
    lines += [
        f"  error_rate   {failed / attempted if attempted else 1.0:.6g} ratio  "
        f"({failed} failed of {attempted} attempted)",
        f"  threads      {result['threads']} in the workload process (nproc {env_info['nproc']})",
    ]
    lines += [f"  error: {e}" for e in result["errors"]]
    if args.trace:
        lines.append(
            f"  traced pass {result['traced_s']:.4f} s; overhead "
            f"{result['layers']['trace.overhead_s']['value']:.4f} s; spans in {spans_path.relative_to(ROOT)}"
        )
        lines.append("  wait: none measured -- no layer has queues or threads")
        lines += [f"  self {name:<44} {sec:.4f} s" for name, sec in result["top_self"]]
        lines += [f"  not traced (missing): {name}" for name in result["missing"]]
        metrics = result["layers"]
    else:
        values = {"wall_ref": ref[1], "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_q[1]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info, "setup_samples": setup, "error_rate": failed / max(attempted, 1),
        "worker": result, "metrics": metrics,
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
