"""Command-line front end for the paraboson Fock engine.

Every subcommand emits a single table in CSV (default) or JSON.  CSV output
is one header line, data rows, then summary lines prefixed with '#'.  JSON
output is an object {"meta": ..., "data": ...} conforming to the schema
shipped at parafock/schemas/output.schema.json.  Reals are printed with 17
significant digits so identical inputs give byte-identical output.

Exit codes: 0 success, 1 a verification subcommand found a deviation above
tolerance, 2 usage error (unknown flags, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .algebra import GENERATOR_NAMES, build_generator, verify_triple_relations
from .coherent import (
    TruncationError,
    b2_element,
    b2_element_oracle,
    bicoherent,
    build_coherent,
    cat_state,
    coherent_norm,
    eigen_residual,
)
from .fockspace import enumerate_basis
from .resolution import (
    radial_grid,
    resolution_identity_check,
    stieltjes_moment_check,
)
from .specfun import bessel_i, bessel_k
from .verify import (
    ALL_CHECKS,
    P_GRID,
    check_adjointness,
    check_triple_relations,
    check_zero_modes,
)
from .zeromodes import kernel_oracle, zero_mode_coeffs, zero_mode_vector

_FORMATS = ("csv", "json")
_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2


class UsageError(Exception):
    """Parameter validation failure, reported on stderr with exit code 2."""


@dataclass
class RunConfig:
    """Every flag of one invocation; those after ``output`` are echoed into the JSON meta block."""

    subcommand: str
    format: str = "csv"
    output: str | None = None
    p: float | None = None
    cutoff: int | None = None
    tol: float | None = None
    gen: str | None = None
    j: int | None = None
    k: int | None = None
    l: int | None = None
    nmax: int | None = None
    kmax: int | None = None
    ncheck: int | None = None
    mode: str | None = None
    kind: str | None = None
    nu: float | None = None
    x: float | None = None
    alpha: complex | None = None
    alpha_prime: complex | None = None
    beta: complex | None = None
    normalized: bool = False
    cat: str | None = None

    def meta(self) -> dict:
        out: dict = {"subcommand": self.subcommand, "version": __version__}
        for flag in fields(self)[3:]:
            name, value = flag.name, getattr(self, flag.name)
            if value is None or (name == "normalized" and not value):
                continue
            if isinstance(value, complex):
                value = f"{value.real:.17g},{value.imag:.17g}"
            out[name] = value
        return out


@dataclass
class Table:
    """One result table: column names, rows, and scalar summary entries."""

    columns: list[str]
    rows: list[list]
    summary: dict = field(default_factory=dict)


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_real(value)
    return str(value)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_csv_field(_cell(v)) for v in row))
    for key, value in table.summary.items():
        lines.append(f"# {key}={_cell(value)}")
    return "\n".join(lines) + "\n"


def _json_value(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _render_json(table: Table, config: RunConfig) -> str:
    payload = {
        "meta": config.meta(),
        "data": {
            "columns": list(table.columns),
            "rows": [[_json_value(v) for v in row] for row in table.rows],
            "summary": {k: _json_value(v) for k, v in table.summary.items()},
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(table: Table, config: RunConfig) -> None:
    text = _render_csv(table) if config.format == "csv" else _render_json(table, config)
    if config.output is None:
        sys.stdout.write(text)
    else:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (use --flag=RE,IM for negative parts), got {text!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basis(cfg: RunConfig) -> tuple[Table, int]:
    basis = enumerate_basis(cfg.p, cfg.cutoff)
    labels = (basis.m12, basis.m22, basis.m11, *basis.weights(), np.arange(basis.size))
    rows = [list(row) for row in zip(*(column.tolist() for column in labels))]
    table = Table(
        columns=["m12", "m22", "m11", "w1", "w2", "index"],
        rows=rows,
        summary={"patterns": basis.size, "p": cfg.p, "cutoff": cfg.cutoff},
    )
    return table, _EXIT_OK


def _cmd_op_matrix(cfg: RunConfig) -> tuple[Table, int]:
    basis = enumerate_basis(cfg.p, cfg.cutoff)
    op = build_generator(basis, cfg.gen)
    rows = [[row, col, value.real, value.imag] for row, col, value in op.entries]
    table = Table(
        columns=["row", "col", "re", "im"],
        rows=rows,
        summary={
            "gen": cfg.gen,
            "dim": op.dim,
            "nnz": op.nnz,
            "clipped_columns": len(op.boundary_rows),
        },
    )
    return table, _EXIT_OK


def _cmd_verify_triple(cfg: RunConfig) -> tuple[Table, int]:
    basis = enumerate_basis(cfg.p, cfg.cutoff)
    report = verify_triple_relations(basis, tol=cfg.tol)
    rows = [
        [r.xi, r.eta, r.eps, r.j, r.k, r.l, r.deviation] for r in report.relations
    ]
    table = Table(
        columns=["xi", "eta", "eps", "j", "k", "l", "deviation"],
        rows=rows,
        summary={
            "relations": len(report.relations),
            "max_deviation": report.max_deviation,
            "interior_degree": report.interior_degree,
            "tol": report.tol,
            "passed": report.passed,
        },
    )
    return table, _EXIT_OK if report.passed else _EXIT_FAIL


def _cmd_zeromodes(cfg: RunConfig) -> tuple[Table, int]:
    _require(cfg.j <= cfg.k, f"the kernel at (j, k) = ({cfg.j}, {cfg.k}) is trivial; need j <= k")
    coeffs = zero_mode_coeffs(cfg.j, cfg.k, cfg.p)
    rows = [[i, c] for i, c in enumerate(coeffs)]
    basis = enumerate_basis(cfg.p, cfg.j + cfg.k)
    vec = zero_mode_vector(basis, cfg.j, cfg.k)
    b1m = build_generator(basis, "b1-")
    residual = b1m.apply(vec).norm()
    dim, kernel_vectors = kernel_oracle(basis, cfg.j, cfg.k, op=b1m)
    alignment = abs(complex(kernel_vectors[0].inner(vec))) if dim == 1 else 0.0
    table = Table(
        columns=["i", "c_i"],
        rows=rows,
        summary={
            "sum_sq": float(np.dot(coeffs, coeffs)),
            "annihilation_residual": residual,
            "kernel_dim": dim,
            "kernel_alignment": alignment,
        },
    )
    return table, _EXIT_OK


def _cmd_coherent(cfg: RunConfig) -> tuple[Table, int]:
    state = build_coherent(
        cfg.p, cfg.j, cfg.k, cfg.alpha, nmax=cfg.nmax, normalized=cfg.normalized
    )
    if cfg.cat is not None:
        state = cat_state(state, cfg.cat)
    rows = [[n, c.real, c.imag] for n, c in enumerate(state.coeffs)]
    residual, top_term = eigen_residual(state)
    table = Table(
        columns=["n", "re", "im"],
        rows=rows,
        summary={
            "nmax": state.nmax,
            "norm_squared": state.norm_squared(),
            "bessel_norm": coherent_norm(cfg.p, cfg.j, cfg.alpha),
            "residual": residual,
            "residual_top_term": top_term,
            "tail_bound": state.tail_bound,
        },
    )
    return table, _EXIT_OK


def _cmd_b2_elements(cfg: RunConfig) -> tuple[Table, int]:
    _require(cfg.k >= 1, f"need k >= 1 so the target family at k - 1 exists, got k = {cfg.k}")
    _require(cfg.j <= cfg.k, f"need j <= k, got (j, k) = ({cfg.j}, {cfg.k})")
    cutoff = cfg.j + cfg.k + cfg.nmax
    _require(
        cutoff <= 60,
        f"j + k + nmax = {cutoff} exceeds the supported cutoff of 60",
    )
    basis = enumerate_basis(cfg.p, cutoff)
    b2_op = build_generator(basis, "b2-")
    rows = []
    worst = 0.0
    for jp in (cfg.j - 1, cfg.j, cfg.j + 1):
        if jp < 0 or jp > cfg.k - 1:
            continue
        closed = b2_element(cfg.p, jp, cfg.alpha_prime, cfg.j, cfg.k, cfg.alpha)
        oracle = b2_element_oracle(
            basis, jp, cfg.alpha_prime, cfg.j, cfg.k, cfg.alpha, cfg.nmax, b2_op=b2_op
        )
        deviation = abs(closed - oracle)
        worst = max(worst, deviation)
        rows.append([jp, closed.real, closed.imag, oracle.real, oracle.imag, deviation])
    table = Table(
        columns=["jp", "closed_re", "closed_im", "oracle_re", "oracle_im", "abs_dev"],
        rows=rows,
        summary={"max_abs_dev": worst, "nmax": cfg.nmax, "cutoff": cutoff},
    )
    return table, _EXIT_OK


def _cmd_bicoherent(cfg: RunConfig) -> tuple[Table, int]:
    state = bicoherent(cfg.p, cfg.j, cfg.l, cfg.alpha, cfg.beta, cfg.kmax)
    rows = [
        ["eigen_residual_b1", state.eigen_residual_b1],
        ["eigen_residual_b2sq", state.eigen_residual_b2sq],
        ["ladder_tail_bound", state.ladder_tail_bound],
        ["ladder_rungs", float(len(state.ladder_coeffs))],
        ["component_count", float(state.kmax + 1)],
    ]
    table = Table(
        columns=["quantity", "value"],
        rows=rows,
        summary={"p": cfg.p, "j": cfg.j, "l": cfg.l, "kmax": cfg.kmax},
    )
    return table, _EXIT_OK


def _cmd_bessel(cfg: RunConfig) -> tuple[Table, int]:
    if cfg.kind == "i":
        result = bessel_i(cfg.nu, cfg.x)
    else:
        _require(cfg.x > 0.0, f"K_nu needs x > 0, got x = {cfg.x}")
        result = bessel_k(cfg.nu, cfg.x)
    table = Table(
        columns=["value", "terms_used", "tail_bound"],
        rows=[[result.value, result.terms_used, result.tail_bound]],
        summary={"kind": cfg.kind, "nu": cfg.nu, "x": cfg.x},
    )
    return table, _EXIT_OK


def _cmd_moments(cfg: RunConfig) -> tuple[Table, int]:
    grid = radial_grid(cfg.p, cfg.j, cfg.nmax)
    rows = []
    worst = 0.0
    for n in range(cfg.nmax + 1):
        report = stieltjes_moment_check(cfg.kind, cfg.p, cfg.j, n, grid=grid)
        worst = max(worst, report.rel_err)
        rows.append([n, report.quadrature, report.closed_form, report.rel_err])
    table = Table(
        columns=["n", "quadrature", "closed_form", "rel_err"],
        rows=rows,
        summary={
            "kind": cfg.kind,
            "max_rel_err": worst,
            "node_count": grid.node_count,
            "x_max": grid.x_max,
        },
    )
    return table, _EXIT_OK


def _cmd_resolution(cfg: RunConfig) -> tuple[Table, int]:
    report = resolution_identity_check(
        cfg.p, cfg.j, cfg.ncheck, mode=cfg.mode, tol=cfg.tol
    )
    deviations = report.deviations
    rows = []
    for m in range(cfg.ncheck + 1):
        for n in range(cfg.ncheck + 1):
            rows.append([m, n, float(report.entries[m, n]), float(deviations[m, n])])
    table = Table(
        columns=["m", "n", "entry", "deviation"],
        rows=rows,
        summary={
            "mode": report.mode,
            "max_abs_deviation": report.max_abs_deviation,
            "tol": report.tol,
            "measure_min": report.measure_min,
            "node_count": report.node_count,
            "x_max": report.x_max,
            "passed": report.passed,
        },
    )
    return table, _EXIT_OK if report.passed else _EXIT_FAIL


def _cmd_verify_all(cfg: RunConfig) -> tuple[Table, int]:
    checks: list[Callable[[], object]] = list(ALL_CHECKS)
    if cfg.p is not None or cfg.cutoff is not None:
        p_grid = (cfg.p,) if cfg.p is not None else P_GRID
        cutoff = cfg.cutoff if cfg.cutoff is not None else 8
        checks[0] = functools.partial(check_triple_relations, p_grid=p_grid, cutoff=cutoff)
        checks[1] = functools.partial(check_adjointness, p_grid=p_grid, cutoff=cutoff)
        checks[2] = functools.partial(check_zero_modes, p_grid=p_grid)
    rows = []
    all_passed = True
    total = 0.0
    for check in checks:
        result = check()
        all_passed = all_passed and result.passed
        total += result.runtime_seconds
        rows.append([
            result.name,
            result.passed,
            result.max_deviation,
            result.tolerance,
            result.runtime_seconds,
            result.detail,
        ])
    table = Table(
        columns=["name", "passed", "max_deviation", "tolerance", "runtime_seconds", "detail"],
        rows=rows,
        summary={"all_passed": all_passed, "total_runtime_seconds": total},
    )
    return table, _EXIT_OK if all_passed else _EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=_FORMATS, default="csv", help="output format")
    sub.add_argument("--output", default=None, metavar="PATH", help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafock",
        description="Paraboson Fock representation engine: basis tables, generator "
        "matrices, eigenstate families, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"parafock {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    sub = subs.add_parser("basis", help="enumerate the truncated pattern basis with weights")
    sub.add_argument("--p", type=float, required=True, help="representation parameter, p > 1")
    sub.add_argument("--cutoff", type=int, required=True, help="degree cutoff N >= 0")
    _add_common(sub)

    sub = subs.add_parser("op-matrix", help="emit one generator matrix in sparse triplet form")
    sub.add_argument("--gen", required=True, choices=GENERATOR_NAMES, help="generator name")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--cutoff", type=int, required=True)
    _add_common(sub)

    sub = subs.add_parser("verify-triple", help="check all 64 triple relations on the interior")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--cutoff", type=int, required=True)
    sub.add_argument("--tol", type=float, default=1e-12)
    _add_common(sub)

    sub = subs.add_parser("zeromodes", help="lowering-kernel vector at (j, k) with residuals")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub)

    sub = subs.add_parser("coherent", help="ladder coefficients of an eigenstate or cat state")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--alpha", type=_parse_complex, required=True, metavar="RE,IM")
    sub.add_argument("--nmax", type=int, default=None, help="rung cutoff (default: automatic)")
    sub.add_argument("--normalized", action="store_true", help="divide by the closed-form norm")
    sub.add_argument("--cat", choices=("+", "-"), default=None, help="project onto one parity")
    _add_common(sub)

    sub = subs.add_parser("b2-elements", help="closed-form b2- matrix elements vs the matrix engine")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--alpha", type=_parse_complex, required=True, metavar="RE,IM")
    sub.add_argument("--alpha-prime", type=_parse_complex, required=True, metavar="RE,IM")
    sub.add_argument("--nmax", type=int, default=20, help="rung cutoff for both states")
    _add_common(sub)

    sub = subs.add_parser("bicoherent", help="joint eigenstate residual bounds")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--l", type=int, required=True, help="branch label, l in {j, j+1}")
    sub.add_argument("--alpha", type=_parse_complex, required=True, metavar="RE,IM")
    sub.add_argument("--beta", type=_parse_complex, required=True, metavar="RE,IM")
    sub.add_argument("--kmax", type=int, default=12, help="component cutoff, kmax >= 2")
    _add_common(sub)

    sub = subs.add_parser("bessel", help="modified Bessel value with series diagnostics")
    sub.add_argument("--kind", required=True, choices=("i", "k"))
    sub.add_argument("--nu", type=float, required=True, help="order")
    sub.add_argument("--x", type=float, required=True, help="argument")
    _add_common(sub)

    sub = subs.add_parser("moments", help="quadrature moments of one radial measure vs closed forms")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--kind", required=True, choices=("I", "II"), help="measure kind")
    sub.add_argument("--nmax", type=int, default=5, help="highest moment, nmax <= 8")
    _add_common(sub)

    sub = subs.add_parser("resolution", help="resolution-of-identity deviation matrix")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--ncheck", type=int, default=10, help="highest rung checked, ncheck <= 16")
    sub.add_argument("--mode", choices=("offdiag", "cat"), default="offdiag")
    sub.add_argument("--tol", type=float, default=1e-6)
    _add_common(sub)

    sub = subs.add_parser("verify-all", help="run every verification suite and report a pass/fail table")
    sub.add_argument("--p", type=float, default=None,
                     help="restrict the parameter-swept suites to one p (fixed-grid suites run unchanged)")
    sub.add_argument("--cutoff", type=int, default=None,
                     help="basis cutoff for the relation suites (default 8)")
    _add_common(sub)

    return parser


_HANDLERS: dict[str, Callable[[RunConfig], tuple[Table, int]]] = {
    "basis": _cmd_basis,
    "op-matrix": _cmd_op_matrix,
    "verify-triple": _cmd_verify_triple,
    "zeromodes": _cmd_zeromodes,
    "coherent": _cmd_coherent,
    "b2-elements": _cmd_b2_elements,
    "bicoherent": _cmd_bicoherent,
    "bessel": _cmd_bessel,
    "moments": _cmd_moments,
    "resolution": _cmd_resolution,
    "verify-all": _cmd_verify_all,
}


def _validate(cfg: RunConfig) -> None:
    if cfg.p is not None:
        _require(cfg.p > 1.0, f"need p > 1, got p = {cfg.p}")
    if cfg.cutoff is not None:
        _require(cfg.cutoff >= 0, f"need cutoff >= 0, got {cfg.cutoff}")
        if cfg.subcommand in ("verify-triple", "verify-all"):
            _require(cfg.cutoff >= 3, f"{cfg.subcommand} needs cutoff >= 3 for a nonempty interior")
    for name in ("j", "k", "l", "ncheck"):
        value = getattr(cfg, name)
        if value is not None:
            _require(value >= 0, f"need {name} >= 0, got {value}")
    if cfg.nmax is not None:
        _require(cfg.nmax >= 1, f"need nmax >= 1, got {cfg.nmax}")
    if cfg.tol is not None:
        _require(cfg.tol > 0.0, f"need tol > 0, got {cfg.tol}")
    if cfg.x is not None:
        _require(cfg.x >= 0.0, f"need x >= 0, got {cfg.x}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    values = vars(args)
    cfg = RunConfig(**{k.replace("-", "_"): v for k, v in values.items()})
    try:
        _validate(cfg)
        table, code = _HANDLERS[cfg.subcommand](cfg)
    except (UsageError, ValueError, TypeError, TruncationError) as exc:
        print(f"parafock: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    _emit(table, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
