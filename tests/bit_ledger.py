"""Bit ledger: named families of the engine's outputs as float hex, one sha256 each.

A family is a function that yields text lines, each value written with ``float.hex``:

- ``verify_all_parts``: every part of every ``verify.run_all`` suite, its deviation, and the
  suite's deviation and tolerance, at cutoffs 3, 8 and 24.
- ``triple_deviations``: the 64 ``verify_triple_relations`` deviations at cutoffs 3, 8 and 24
  for p 1.3, 2.5 and 120.
- ``relation_checks``: ``adjointness_deviation`` and ``pair_anticommutator_deviation`` at
  cutoffs 3, 8, 24, 40 and 64 for p 1.3, 2.5 and 120.

The families run in a child with ``OPENBLAS_NUM_THREADS=1``: ``bicoherent/b2sq_assembly``
goes through a BLAS dot whose summation order depends on the thread count, and its last bits
read ``...504ep-1`` with one thread and ``...504cp-1`` with two.  ``tests/test_bit_ledger.py``
compares each digest with its committed table.

    python tests/bit_ledger.py                      # versions and digests of this tree
    python tests/bit_ledger.py --compare OTHER_TREE  # the families that differ from OTHER_TREE

A tree is a checkout whose ``src`` holds ``parafock``.  Both trees run this file's families.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
CUTOFFS = (3, 8, 24)
TRIPLE_P = (1.3, 2.5, 120.0)
RELATION_CUTOFFS = CUTOFFS + (40, 64)


def verify_all_parts():
    from parafock.verify import run_all

    for cutoff in CUTOFFS:
        for result in run_all(cutoff=cutoff):
            yield f"{cutoff} {result.name} {result.max_deviation.hex()} {result.tolerance.hex()}"
            for part, deviation in result.parts:
                yield f"{cutoff} {result.name}/{part} {deviation.hex()}"


def triple_deviations():
    from parafock.algebra import verify_triple_relations
    from parafock.fockspace import enumerate_basis

    for p in TRIPLE_P:
        for cutoff in CUTOFFS:
            for r in verify_triple_relations(enumerate_basis(p, cutoff)).relations:
                yield f"{p} {cutoff} {r.xi} {r.eta} {r.eps} {r.j} {r.k} {r.l} {r.deviation.hex()}"


def relation_checks():
    from parafock.algebra import adjointness_deviation, pair_anticommutator_deviation
    from parafock.fockspace import enumerate_basis

    for p in TRIPLE_P:
        for cutoff in RELATION_CUTOFFS:
            basis = enumerate_basis(p, cutoff)
            adjoint, pair = adjointness_deviation(basis), pair_anticommutator_deviation(basis)
            yield f"{p} {cutoff} {adjoint.hex()} {pair.hex()}"


FAMILIES = {family.__name__: family for family in (verify_all_parts, triple_deviations, relation_checks)}


def _versions() -> dict:
    import numpy as np
    import parafock

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "parafock": str(Path(parafock.__file__).parent),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _child() -> dict:
    digests = {}
    for name, family in FAMILIES.items():
        digest = hashlib.sha256()
        for line in family():
            digest.update(line.encode() + b"\n")
        digests[name] = digest.hexdigest()
    return {"versions": _versions(), "digests": digests}


def run(tree: Path = TREE) -> dict:
    """{"versions": ..., "digests": {family: sha256}} of ``tree/src``, from a child with one BLAS thread."""
    path = os.pathsep.join(filter(None, (str(Path(tree).resolve() / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode:
        raise RuntimeError(f"the ledger failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", metavar="OTHER_TREE", type=Path, help="name the families that differ")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child()))
        return 0
    mine = run()
    print(json.dumps(mine, indent=2))
    if args.compare is None:
        return 0
    other = run(args.compare)
    print(json.dumps(other["versions"], indent=2))
    differ = [name for name in FAMILIES if mine["digests"][name] != other["digests"][name]]
    for name in FAMILIES:
        print(f"{'differs' if name in differ else 'same'}: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
