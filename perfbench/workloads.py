"""Seeded inputs, passes and correctness gates of the four benchmark workloads.

Inputs are plain data generated from the workload seed; the program sees
only the flags and arguments built from them.  One pass runs every input
of the workload once.  Each operation is checked against the gate the
paper's verification battery pins for it, and an operation that raises is
counted as failed instead of stopping the benchmark.

Why each workload exists:

* battery -- ``verify.run_all()``, the job users run.  About half of a pass
  is ``build_generator``, most of the rest ``ladder_family`` and
  ``SparseOperator.apply`` at cutoffs 8-41, and about a second
  ``specfun``/``resolution``.  Its grid is pinned, so the seed does not
  change its inputs.
* oracle-edge -- ``b2-elements`` through ``cli.main`` at j + k + nmax = 60
  (39,711 states), the largest basis the CLI accepts.  Basis enumeration,
  generator build, ladder assembly and apply dominate, in time and memory.
  The (j, k) shape is drawn from the three two-branch shapes (0, 2),
  (1, 2) and (0, 3), which between them reach every jp branch and cost the
  same at cutoff 60, so the seed changes the values but not the amount of
  work.  |alpha| and |alpha'| stay <= 1.5, which keeps the truncated oracle
  inside the pinned 1e-8 gate.
* triple-algebra -- ``verify-triple`` through ``cli.main`` at cutoff 24
  (2,925 states): sparse-sparse products, sums and ``max_abs`` instead of
  matvecs, so a representation that speeds apply but slows products shows.
* special-functions -- Bessel K against its integral oracle, the three
  coherent norm routes, and radial quadrature moments and resolutions of
  identity.  It never touches ``fockspace`` or ``algebra``: the bypass
  workload for matrix-engine changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import traceback

WORKLOADS = ("battery", "oracle-edge", "triple-algebra", "special-functions")

ORACLE_CUTOFF = 60
ORACLE_SHAPES = ((0, 2), (1, 2), (0, 3))
ORACLE_GATE = 1e-8
TRIPLE_CUTOFF = 24
K_GATE = 1e-8
NORM_GATE = 1e-10
MOMENT_GATE = 1e-8
K_STRATA = 40
NORM_STATES = 60
GRIDS = 6
GRID_RUNGS = 10
MOMENT_ORDERS = 6


class Ops:
    """Counts operations attempted and failed across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def run(self, label: str, fn, expected: int = 1) -> None:
        """Run one operation; ``fn`` returns one gate outcome per checked result.

        An exception counts all ``expected`` outcomes as failed.
        """
        try:
            if self.tracer is None:
                outcomes = fn()
            else:
                with self.tracer.span("bench.op"):
                    outcomes = fn()
        except Exception:
            outcomes = [(False, traceback.format_exc(limit=2).strip().splitlines()[-1])]
            outcomes += [(False, "not reached")] * (expected - 1)
        for ok, detail in outcomes:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{label}: {detail}")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _complex_flag(name: str, rng: random.Random, r_min: float, r_max: float) -> str:
    r = rng.uniform(r_min, r_max)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    # The '=' form keeps a negative real part from reading as a flag.
    return f"--{name}={r * math.cos(theta)!r},{r * math.sin(theta)!r}"


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload, as plain data; the same seed gives the same inputs."""
    rng = _rng(workload, seed)
    if workload == "battery":
        return {"calls": []}
    if workload == "oracle-edge":
        j, k = rng.choice(ORACLE_SHAPES)
        argv = [
            "b2-elements", "--p", repr(rng.uniform(1.2, 4.8)), "--j", str(j), "--k", str(k),
            _complex_flag("alpha", rng, 0.2, 1.5), _complex_flag("alpha-prime", rng, 0.2, 1.5),
            "--nmax", str(ORACLE_CUTOFF - j - k),
        ]
        return {"calls": [argv]}
    if workload == "triple-algebra":
        # One p from each half of (1.2, 4.8), so every seed spans the range.
        ps = (rng.uniform(1.2, 3.0), rng.uniform(3.0, 4.8))
        return {"calls": [["verify-triple", "--p", repr(p), "--cutoff", str(TRIPLE_CUTOFF)] for p in ps]}
    if workload == "special-functions":
        return _special_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], in random order."""
    points = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _special_inputs(rng: random.Random) -> dict:
    # x is log-uniform on (0.05, 50) and stratified, so every seed spans the
    # cheap small-x and the high-precision large-x ends alike.
    log_lo, log_hi = math.log(0.05), math.log(50.0)
    k_checks = []
    for kind in ("generic", "integer", "near-integer"):
        xs = [math.exp(v) for v in _strata(rng, K_STRATA, log_lo, log_hi)]
        generic = _strata(rng, K_STRATA, 0.0, 6.0)
        for i, x in enumerate(xs):
            if kind == "generic":
                nu = generic[i]
            elif kind == "integer":
                nu = float(rng.randint(0, 6))
            else:
                # Just outside the 1e-6 integer margin: the reflection form at its seam.
                nu = abs(rng.randint(0, 6) + rng.choice((-1.0, 1.0)) * rng.uniform(2e-6, 1e-5))
            k_checks.append((kind, nu, x))
    norms = []
    for _ in range(NORM_STATES):
        r, theta = rng.uniform(0.3, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        norms.append((rng.uniform(1.2, 4.8), rng.randint(0, 4), r * math.cos(theta), r * math.sin(theta)))
    grids = [(rng.uniform(1.2, 4.8), rng.randint(0, 2)) for _ in range(GRIDS)]
    return {"k_checks": k_checks, "norms": norms, "grids": grids}


# ---------------------------------------------------------------------------
# passes


def _summary(stdout: str) -> dict[str, str]:
    """The ``# key=value`` summary lines of a CSV result."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            out[key] = value
    return out


def _cli_gate(workload: str, rc: int, summary: dict) -> tuple[bool, str]:
    if rc != 0:
        return False, f"exit code {rc}"
    if workload == "oracle-edge":
        dev = float(summary.get("max_abs_dev", "nan"))
        return dev <= ORACLE_GATE, f"max_abs_dev {dev!r}"
    return summary.get("passed") == "true", f"passed={summary.get('passed')}"


def _cli_pass(workload: str, inputs: dict, ops: Ops, hashes: dict) -> dict:
    from parafock import cli

    for i, argv in enumerate(inputs["calls"]):
        def call(i=i, argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            text = out.getvalue()
            ok, detail = _cli_gate(workload, rc, _summary(text))
            digest = hashlib.sha256(text.encode()).hexdigest()
            same = hashes.setdefault(i, digest) == digest
            return [(ok, detail if ok else f"{detail}; stderr {err.getvalue().strip()[:200]}"),
                    (same, "stdout differs from the first pass")]
        ops.run(" ".join(argv), call, expected=2)
    return {}


def _battery_pass(inputs: dict, ops: Ops, hashes: dict) -> dict:
    from parafock import verify

    suites: dict = {}

    def call():
        results = verify.run_all()
        for r in results:
            ratio = r.max_deviation / r.tolerance if r.tolerance > 0 else math.inf
            suites[r.name] = (r.runtime_seconds, ratio)
        return [(r.passed, f"{r.name} deviation {r.max_deviation!r} > {r.tolerance!r}") for r in results]

    ops.run("verify.run_all", call, expected=len(verify.ALL_CHECKS))
    return suites


def _special_pass(inputs: dict, ops: Ops, hashes: dict) -> dict:
    from parafock import coherent, resolution, specfun

    for kind, nu, x in inputs["k_checks"]:
        def k_check(nu=nu, x=x):
            value = specfun.bessel_k(nu, x).value
            oracle = specfun.bessel_k_oracle(nu, x / 2.0)
            rel = abs(value - oracle) / abs(oracle)
            return [(rel <= K_GATE, f"relative deviation {rel!r}")]
        ops.run(f"bessel_k {kind} nu={nu!r} x={x!r}", k_check)

    for p, j, re, im in inputs["norms"]:
        def norm_check(p=p, j=j, alpha=complex(re, im)):
            routes = (
                coherent.coherent_norm(p, j, alpha),
                coherent.coherent_norm_series(p, j, alpha),
                coherent.build_coherent(p, j, j, alpha).norm_squared(),
            )
            scale = max(routes)
            dev = max(abs(routes[a] - routes[b]) / scale for a in range(3) for b in range(a + 1, 3))
            return [(dev <= NORM_GATE, f"route disagreement {dev!r}")]
        ops.run(f"coherent norms p={p!r} j={j} alpha={complex(re, im)!r}", norm_check)

    for p, j in inputs["grids"]:
        def grid_check(p=p, j=j):
            grid = resolution.radial_grid(p, j, GRID_RUNGS)
            out = []
            for kind in ("I", "II"):
                for n in range(MOMENT_ORDERS):
                    rep = resolution.stieltjes_moment_check(kind, p, j, n, grid=grid)
                    out.append((rep.rel_err <= MOMENT_GATE, f"moment {kind}{n} rel_err {rep.rel_err!r}"))
            for mode in ("offdiag", "cat"):
                rep = resolution.resolution_identity_check(p, j, GRID_RUNGS, mode=mode, grid=grid)
                out.append((rep.passed, f"{mode} deviation {rep.max_abs_deviation!r}"))
            return out
        ops.run(f"quadrature p={p!r} j={j}", grid_check, expected=2 * MOMENT_ORDERS + 2)
    return {}


def run_pass(workload: str, inputs: dict, ops: Ops, hashes: dict) -> dict:
    """Run every input of the workload once; returns verify suite figures for battery."""
    if workload == "battery":
        return _battery_pass(inputs, ops, hashes)
    if workload == "special-functions":
        return _special_pass(inputs, ops, hashes)
    return _cli_pass(workload, inputs, ops, hashes)
