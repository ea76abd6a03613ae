"""The former automatic rung count of ``coherent.build_coherent``, kept as a reference.

It stopped at the first even n >= 4 whose coefficient had decayed below
1e-16 of the running peak, even where |alpha| / sqrt(n + 1) >= 1; the tail
check after the loop then raised a TruncationError.
"""

import math

import numpy as np

from parafock.coherent import _AUTO_DECAY, _NMAX_CAP, TruncationError
from parafock.zeromodes import ladder_step


def reference_auto_coherent(p, j, alpha):
    """Coefficients and tail bound of the unnormalized state with ``nmax=None``."""
    alpha = complex(alpha)
    nmax = None
    coeffs = [complex(1.0)]
    peak = 1.0
    n = 0
    while True:
        if nmax is None:
            if n >= 4 and n % 2 == 0 and abs(coeffs[-1]) < _AUTO_DECAY * peak:
                break
            if n >= _NMAX_CAP:
                raise TruncationError(
                    f"coefficients did not decay below {_AUTO_DECAY} of peak within "
                    f"{_NMAX_CAP} rungs at |alpha| = {abs(alpha)}"
                )
        elif n >= nmax:
            break
        coeffs.append(coeffs[-1] * alpha / ladder_step(p, j, n))
        n += 1
        peak = max(peak, abs(coeffs[-1]))

    arr = np.array(coeffs, dtype=np.complex128)
    # Geometric tail: every later ratio is at most |alpha| / sqrt(nmax + 1).
    q = abs(alpha) / math.sqrt(len(arr))
    if abs(alpha) > 0 and q >= 1.0:
        raise TruncationError(
            f"nmax = {len(arr) - 1} does not reach the decaying regime for |alpha| = {abs(alpha)}"
        )
    tail = abs(arr[-1]) * q / math.sqrt(1.0 - q * q) if abs(alpha) > 0 else 0.0
    return arr, tail
