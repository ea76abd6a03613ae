"""Library refusals that no other test reaches: each bad input raises its own message."""

import numpy as np
import pytest

from parafock import (
    FockVector,
    b2_element_oracle,
    bessel_i,
    besseli_values,
    besselk_values,
    build_generator,
    enumerate_basis,
    kernel_oracle,
    ladder_normalization,
    ladder_step,
    t1_inverse_apply,
    weight_of,
)

P = 2.5


def _generator(cutoff, name="b1+"):
    return build_generator(enumerate_basis(P, cutoff), name)


def _vacuum_below_the_floor():
    # the vacuum has m11 = 0, below the floor m11 = 1 of the ladder at zeta1 = p/2 + 1
    basis = enumerate_basis(P, 3)
    return t1_inverse_apply(FockVector.scatter(basis, 0, 1.0), P / 2.0 + 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: _generator(3).apply(FockVector(enumerate_basis(P, 2), np.ones(10))), "does not match dim"),
    (lambda: _generator(3) @ _generator(2), "dimension mismatch"),
    (lambda: _generator(3) + _generator(2), "dimension mismatch"),
    (lambda: _generator(2, "b3+"), "unknown generator"),
    (_vacuum_below_the_floor, "below the ladder floor"),
    (lambda: b2_element_oracle(enumerate_basis(P, 8), 2, 0.3, 1, 2, 0.5, 4), "does not exist"),
    (lambda: FockVector(enumerate_basis(P, 2), np.ones(11)), "does not match basis size"),
    (lambda: bessel_i(-0.5, 0.0), "diverges"),
    (lambda: besselk_values(0.5, np.ones((2, 2))), "one-dimensional"),
    (lambda: besseli_values(0.5, np.array([1.0, 0.0])), "must be positive"),
    (lambda: kernel_oracle(enumerate_basis(P, 3), 2, 2), "too small"),
    (lambda: ladder_step(P, 0, -1), "n >= 0"),
    (lambda: ladder_normalization(P, 0, -1), "n >= 0"),
    (lambda: weight_of(1, 0, 1, -5.0), "1 < p <= 120"),  # returned (-1.5, -2.5)
    (lambda: weight_of(1, 0, 1, float("nan")), "1 < p <= 120"),
], ids=["apply-shape", "matmul-dim", "add-dim", "generator-name",
        "t1-inverse-floor", "b2-oracle-target", "vector-shape", "bessel_i-at-0",
        "besselk_values-2d", "besseli_values-point", "kernel_oracle-cutoff",
        "ladder_step-n", "ladder_normalization-n", "weight_of-p", "weight_of-nan"])
def test_library_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
