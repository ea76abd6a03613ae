"""Every family of the bit ledger (``tests/bit_ledger.py``) keeps its committed sha256.

The table was taken at commit ceab91e (``relation_checks`` at 5672f68, the commit before the
adjoint and pair checks left operator arithmetic), on numpy 2.4.6 with its bundled OpenBLAS 0.3.31
and one BLAS thread.  A change that moves bits on purpose updates the table and names, in CHANGES.md,
each family that changed and why; on another numpy or BLAS build a family may fail, and the
message names the versions it ran under.
"""

import pytest

import bit_ledger

DIGESTS = {
    "verify_all_parts": "14ff86787ef4593b15fcaf291d52ab9d59feb1719be2ca50a532a8913588a5c1",
    "triple_deviations": "6b3ed2288d883edcb2e85a2807c820257519e358e1af450e6b37a55a3b38cbdc",
    "relation_checks": "8919ebf00e4b16e25ed574ff0f0b43de191227379bc46b7a639d17e9d1c71995",
}


@pytest.fixture(scope="module")
def ledger():
    return bit_ledger.run()


def test_the_table_lists_every_family():
    assert list(DIGESTS) == list(bit_ledger.FAMILIES)


@pytest.mark.parametrize("family", DIGESTS)
def test_a_family_keeps_its_bits(ledger, family):
    assert ledger["versions"]["OPENBLAS_NUM_THREADS"] == "1"
    assert ledger["digests"][family] == DIGESTS[family], f"{family} changed under {ledger['versions']}"
