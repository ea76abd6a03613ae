"""Command-line front end for the paraboson Fock engine.

Every subcommand emits a single table in CSV (default) or JSON.  CSV output,
written by ``csv.writer``, is one header line, data rows, then summary lines
prefixed with '#'.  JSON output, written by ``json.dumps``, is an object
{"meta": ..., "data": ...} conforming to the schema shipped at
parafock/schemas/output.schema.json.  CSV prints reals with 17 significant
digits and JSON with their shortest round-trip form, so identical inputs give
byte-identical output.

Exit codes: 0 success, 1 a verification subcommand found a deviation above
tolerance, 2 usage error (unknown flags, out-of-range parameters, an --output
path that cannot be written).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__, algebra, coherent, resolution
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
from .verify import ALL_CHECKS, P_GRID, _worse, run_all  # noqa: F401 (cli.ALL_CHECKS stays public)
from .zeromodes import _validate_family, kernel_oracle, zero_mode_coeffs, zero_mode_vector

_FORMATS = ("csv", "json")
_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2

# The relation suites' envelope: on a 2-core machine verify-triple at cutoff 64 takes
# 0.33-0.52 s and 59.4 MiB, verify-all 1.7-2.3 s and 111 MiB; both grow as cutoff**3
# (cutoff 200 would take about 30 times the time and memory for each p).
_RELATION_CUTOFF_MAX = 64


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


_COMPLEX = {"type": _parse_complex, "required": True, "metavar": "RE,IM"}

# Every flag once, in JSON meta order: its argparse keyword arguments (a
# subcommand may override them) and its lower bound as (">" or ">=", value),
# or None.  Float and complex values must also be finite.
_FLAGS: dict[str, tuple[dict, tuple[str, float] | None]] = {
    "p": ({"type": float, "required": True}, (">", 1)),
    "cutoff": ({"type": int, "required": True}, (">=", 0)),
    "tol": ({"type": float}, (">", 0)),
    "gen": ({"required": True, "choices": GENERATOR_NAMES, "help": "generator name"}, None),
    "j": ({"type": int, "required": True}, (">=", 0)),
    "k": ({"type": int, "required": True}, (">=", 0)),
    "l": ({"type": int, "required": True, "help": "branch label, l in {j, j+1}"}, (">=", 0)),
    "nmax": ({"type": int}, (">=", 1)),
    "kmax": ({"type": int, "default": 12,
              "help": f"component cutoff, 2 <= kmax <= {coherent._NMAX_CAP}"}, None),
    "ncheck": ({"type": int, "default": 10,
                "help": f"highest rung checked, ncheck <= {resolution._NCHECK_MAX}"}, (">=", 0)),
    "mode": ({"choices": ("offdiag", "cat"), "default": "offdiag"}, None),
    "kind": ({"required": True}, None),
    "nu": ({"type": float, "required": True, "help": "order"}, None),
    "x": ({"type": float, "required": True, "help": "argument"}, (">=", 0)),
    "alpha": (_COMPLEX, None),
    "alpha_prime": (_COMPLEX, None),
    "beta": (_COMPLEX, None),
    "normalized": ({"action": "store_true", "help": "divide by the closed-form norm"}, None),
    "cat": ({"choices": ("+", "-"), "help": "project onto one parity"}, None),
}


def _meta(args: argparse.Namespace) -> dict:
    """The JSON meta block: subcommand, version, then every flag given a value."""
    out: dict = {"subcommand": args.subcommand, "version": __version__}
    for name in _FLAGS:
        value = getattr(args, name, None)
        if value is None or value is False:
            continue
        if isinstance(value, complex):
            value = f"{value.real:.17g},{value.imag:.17g}"
        out[name] = value
    return out


@dataclass
class Table:
    """One result table: column names, rows, scalar summary entries, and whether its checks passed."""

    columns: list[str]
    rows: list[list]
    summary: dict = field(default_factory=dict)
    passed: bool = True


def _cell(value) -> str:
    if type(value) is float:  # the common cells first, by exact type: a bool or numpy scalar takes the chain
        return f"{value:.17g}"
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render_csv(table: Table) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([_cell(v) for v in row] for row in table.rows)
    for key, value in table.summary.items():
        out.write(f"# {key}={_cell(value)}\n")
    return out.getvalue()


def _plain(value):
    """The json.dumps fallback: a numpy scalar's Python value, anything else as text."""
    return value.item() if isinstance(value, np.generic) else str(value)


def _render_json(table: Table, args: argparse.Namespace) -> str:
    data = {"columns": table.columns, "rows": table.rows, "summary": table.summary}
    return json.dumps({"meta": _meta(args), "data": data}, indent=2, default=_plain) + "\n"


def _emit(table: Table, args: argparse.Namespace) -> bool:
    """Write the table; False, with a message, when ``--output`` cannot be written."""
    text = _render_csv(table) if args.format == "csv" else _render_json(table, args)
    if args.output is None:
        sys.stdout.write(text)
        return True
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"parafock: error: cannot write the output file: {exc}", file=sys.stderr)
        return False
    return True


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basis(args: argparse.Namespace) -> Table:
    basis = enumerate_basis(args.p, args.cutoff)
    labels = (basis.m12, basis.m22, basis.m11, *basis.weights(), np.arange(basis.size))
    rows = [list(row) for row in zip(*(column.tolist() for column in labels))]
    return Table(
        columns=["m12", "m22", "m11", "w1", "w2", "index"],
        rows=rows,
        summary={"patterns": basis.size, "p": args.p, "cutoff": args.cutoff},
    )


def _cmd_op_matrix(args: argparse.Namespace) -> Table:
    basis = enumerate_basis(args.p, args.cutoff)
    op = build_generator(basis, args.gen)
    # a raising generator drops its entries in the columns of the m12 = cutoff shell
    clipped = int(np.count_nonzero(basis.m12 == basis.cutoff)) if args.gen.endswith("+") else 0
    rows = [[row, col, value.real, value.imag] for row, col, value in op.entries]
    return Table(
        columns=["row", "col", "re", "im"],
        rows=rows,
        summary={
            "gen": args.gen,
            "dim": op.dim,
            "nnz": op.nnz,
            "clipped_columns": clipped,
        },
    )


def _cmd_verify_triple(args: argparse.Namespace) -> Table:
    basis = enumerate_basis(args.p, args.cutoff)
    report = verify_triple_relations(basis, tol=args.tol)
    rows = [
        [r.xi, r.eta, r.eps, r.j, r.k, r.l, r.deviation] for r in report.relations
    ]
    return Table(
        columns=["xi", "eta", "eps", "j", "k", "l", "deviation"],
        rows=rows,
        summary={
            "relations": len(report.relations),
            "max_deviation": report.max_deviation,
            "interior_degree": report.interior_degree,
            "tol": report.tol,
            "passed": report.passed,
        },
        passed=report.passed,
    )


def _cmd_zeromodes(args: argparse.Namespace) -> Table:
    _require(args.j <= args.k, f"the kernel at (j, k) = ({args.j}, {args.k}) is trivial; need j <= k")
    # the p and cutoff checks come before the coefficient loop, which is O(k)
    _validate_family(args.j, args.k, args.p)
    basis = enumerate_basis(args.p, args.j + args.k)
    coeffs = zero_mode_coeffs(args.j, args.k, args.p)
    rows = [[i, c] for i, c in enumerate(coeffs)]
    vec = zero_mode_vector(basis, args.j, args.k)
    # b1- on the zero mode's h2 sector, which kernel_oracle shares, applies as the whole b1-
    residual = algebra._h2_sector(basis, "b1-", args.k)[1].apply(vec).norm()
    dim, kernel_vectors = kernel_oracle(basis, args.j, args.k)
    alignment = abs(complex(kernel_vectors[0].inner(vec))) if dim == 1 else 0.0
    return Table(
        columns=["i", "c_i"],
        rows=rows,
        summary={
            "sum_sq": float(np.dot(coeffs, coeffs)),
            "annihilation_residual": residual,
            "kernel_dim": dim,
            "kernel_alignment": alignment,
        },
    )


def _cmd_coherent(args: argparse.Namespace) -> Table:
    state = build_coherent(
        args.p, args.j, args.k, args.alpha, nmax=args.nmax, normalized=args.normalized
    )
    if args.cat is not None:
        state = cat_state(state, args.cat)
    rows = [[n, c.real, c.imag] for n, c in enumerate(state.coeffs)]
    residual, top_term = eigen_residual(state)
    return Table(
        columns=["n", "re", "im"],
        rows=rows,
        summary={
            "nmax": state.nmax,
            "norm_squared": state.norm_squared(),
            "bessel_norm": coherent_norm(args.p, args.j, args.alpha),
            "residual": residual,
            "residual_top_term": top_term,
            "tail_bound": state.tail_bound,
        },
    )


def _cmd_b2_elements(args: argparse.Namespace) -> Table:
    _require(args.k >= 1, f"need k >= 1 so the target family at k - 1 exists, got k = {args.k}")
    _require(args.j <= args.k, f"need j <= k, got (j, k) = ({args.j}, {args.k})")
    cutoff = args.j + args.k + args.nmax
    basis = enumerate_basis(args.p, cutoff)
    rows = []
    worst = 0.0
    for jp in (args.j - 1, args.j, args.j + 1):
        if jp < 0 or jp > args.k - 1:
            continue
        closed = b2_element(args.p, jp, args.alpha_prime, args.j, args.k, args.alpha)
        oracle = b2_element_oracle(basis, jp, args.alpha_prime, args.j, args.k, args.alpha, args.nmax)
        deviation = abs(closed - oracle)
        worst = _worse(worst, deviation)
        rows.append([jp, closed.real, closed.imag, oracle.real, oracle.imag, deviation])
    return Table(
        columns=["jp", "closed_re", "closed_im", "oracle_re", "oracle_im", "abs_dev"],
        rows=rows,
        summary={"max_abs_dev": worst, "nmax": args.nmax, "cutoff": cutoff},
    )


def _cmd_bicoherent(args: argparse.Namespace) -> Table:
    state = bicoherent(args.p, args.j, args.l, args.alpha, args.beta, args.kmax)
    rows = [
        ["eigen_residual_b1", state.eigen_residual_b1],
        ["eigen_residual_b2sq", state.eigen_residual_b2sq],
        ["ladder_tail_bound", state.ladder_tail_bound],
        ["ladder_rungs", float(len(state.ladder_coeffs))],
        ["component_count", float(state.kmax + 1)],
    ]
    return Table(
        columns=["quantity", "value"],
        rows=rows,
        summary={"p": args.p, "j": args.j, "l": args.l, "kmax": args.kmax},
    )


def _cmd_bessel(args: argparse.Namespace) -> Table:
    if args.kind == "i":
        result = bessel_i(args.nu, args.x)
    else:
        _require(args.x > 0.0, f"K_nu needs x > 0, got x = {args.x}")
        result = bessel_k(args.nu, args.x)
    return Table(
        columns=["value", "terms_used", "tail_bound"],
        rows=[[result.value, result.terms_used, result.tail_bound]],
        summary={"kind": args.kind, "nu": args.nu, "x": args.x},
    )


def _cmd_moments(args: argparse.Namespace) -> Table:
    grid = radial_grid(args.p, args.j, args.nmax)
    rows = []
    worst = 0.0
    for n in range(args.nmax + 1):
        report = stieltjes_moment_check(args.kind, args.p, args.j, n, grid=grid)
        worst = _worse(worst, report.rel_err)
        rows.append([n, report.quadrature, report.closed_form, report.rel_err])
    return Table(
        columns=["n", "quadrature", "closed_form", "rel_err"],
        rows=rows,
        summary={
            "kind": args.kind,
            "max_rel_err": worst,
            "node_count": grid.node_count,
            "x_max": grid.x_max,
        },
    )


def _cmd_resolution(args: argparse.Namespace) -> Table:
    report = resolution_identity_check(
        args.p, args.j, args.ncheck, mode=args.mode, tol=args.tol
    )
    deviations = report.deviations
    rows = []
    for m in range(args.ncheck + 1):
        for n in range(args.ncheck + 1):
            rows.append([m, n, float(report.entries[m, n]), float(deviations[m, n])])
    return Table(
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
        passed=report.passed,
    )


def _cmd_verify_all(args: argparse.Namespace) -> Table:
    p_grid = (args.p,) if args.p is not None else P_GRID
    cutoff = args.cutoff if args.cutoff is not None else 8
    results = run_all(p_grid, cutoff)
    all_passed = all(r.passed for r in results)
    columns = ["name", "passed", "max_deviation", "tolerance", "runtime_seconds", "detail"]
    return Table(
        columns=columns,
        rows=[[getattr(r, column) for column in columns] for r in results],
        summary={"all_passed": all_passed, "total_runtime_seconds": sum(r.runtime_seconds for r in results)},
        passed=all_passed,
    )


_SUBCOMMANDS: dict[str, tuple[Callable[[argparse.Namespace], Table], str, dict]] = {
    "basis": (_cmd_basis, "enumerate the truncated pattern basis with weights", {
        "p": {"help": "representation parameter, p > 1"},
        "cutoff": {"help": "degree cutoff N >= 0"},
    }),
    "op-matrix": (_cmd_op_matrix, "emit one generator matrix in sparse triplet form", {
        "gen": {}, "p": {}, "cutoff": {},
    }),
    "verify-triple": (_cmd_verify_triple, "check all 64 triple relations on the interior", {
        "p": {}, "cutoff": {"help": f"degree cutoff, 3 <= cutoff <= {_RELATION_CUTOFF_MAX}"},
        "tol": {"default": 1e-12},
    }),
    "zeromodes": (_cmd_zeromodes, "lowering-kernel vector at (j, k) with residuals", {
        "p": {}, "j": {}, "k": {},
    }),
    "coherent": (_cmd_coherent, "ladder coefficients of an eigenstate or cat state", {
        "p": {}, "j": {}, "k": {}, "alpha": {},
        "nmax": {"help": f"rung cutoff, 4 <= nmax <= {coherent._NMAX_CAP} (default: automatic)"},
        "normalized": {}, "cat": {},
    }),
    "b2-elements": (_cmd_b2_elements, "closed-form b2- matrix elements vs the matrix engine", {
        "p": {}, "j": {}, "k": {}, "alpha": {}, "alpha_prime": {},
        "nmax": {"default": 20, "help": "rung cutoff for both states"},
    }),
    "bicoherent": (_cmd_bicoherent, "joint eigenstate residual bounds", {
        "p": {}, "j": {}, "l": {}, "alpha": {}, "beta": {}, "kmax": {},
    }),
    "bessel": (_cmd_bessel, "modified Bessel value with series diagnostics", {
        "kind": {"choices": ("i", "k")}, "nu": {}, "x": {},
    }),
    "moments": (_cmd_moments, "quadrature moments of one radial measure vs closed forms", {
        "p": {}, "j": {},
        "kind": {"choices": ("I", "II"), "help": "measure kind"},
        "nmax": {"default": 5, "help": f"highest moment, nmax <= {resolution._MOMENT_N_MAX}"},
    }),
    "resolution": (_cmd_resolution, "resolution-of-identity deviation matrix", {
        "p": {}, "j": {}, "ncheck": {}, "mode": {}, "tol": {"default": 1e-6},
    }),
    "verify-all": (_cmd_verify_all, "run every verification suite and report a pass/fail table", {
        "p": {"required": False,
              "help": "restrict the parameter-swept suites to one p (fixed-grid suites run unchanged)"},
        "cutoff": {"required": False,
                   "help": "basis cutoff for the relation suites, "
                           f"3 <= cutoff <= {_RELATION_CUTOFF_MAX} (default 8)"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    return _parser(_SUBCOMMANDS)


def _parser(names: Iterable[str]) -> argparse.ArgumentParser:
    """The CLI parser with the subcommands ``names`` only."""
    parser = argparse.ArgumentParser(
        prog="parafock",
        description="Paraboson Fock representation engine: basis tables, generator "
        "matrices, eigenstate families, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"parafock {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name in names:
        handler, help_text, overrides = _SUBCOMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, extra in overrides.items():
            sub.add_argument("--" + flag.replace("_", "-"), **{**_FLAGS[flag][0], **extra})
        sub.add_argument("--format", choices=_FORMATS, default="csv", help="output format")
        sub.add_argument("--output", default=None, metavar="PATH", help="write to PATH instead of stdout")
        sub.set_defaults(handler=handler)
    return parser


def _validate(args: argparse.Namespace) -> None:
    for name, (_, bound) in _FLAGS.items():
        value = getattr(args, name, None)
        if isinstance(value, (float, complex)):
            _require(cmath.isfinite(value), f"need a finite {name}, got {name} = {value}")
        if bound is not None and value is not None:
            op, low = bound
            met = value > low if op == ">" else value >= low
            _require(met, f"need {name} {op} {low}, got {name} = {value}")
    if args.subcommand in ("verify-triple", "verify-all") and args.cutoff is not None:
        _require(3 <= args.cutoff <= _RELATION_CUTOFF_MAX,
                 f"{args.subcommand} needs 3 <= cutoff <= {_RELATION_CUTOFF_MAX} "
                 f"(3 for a nonempty interior), got cutoff = {args.cutoff}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading subcommand takes every later token, so no other subcommand is read: not for
    # help, not for an error (the top-level usage names them only as SUBCOMMAND)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    try:
        args = _parser(names).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate(args)
        table = args.handler(args)
    except (ValueError, TypeError, TruncationError) as exc:
        print(f"parafock: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if not _emit(table, args):
        return _EXIT_USAGE
    return _EXIT_OK if table.passed else _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
