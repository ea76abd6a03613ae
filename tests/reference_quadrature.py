"""The engine's former K bucket integral and I series, kept as references for ``specfun``.

``reference_k_bucket`` is the body ``specfun._k_bucket`` ran before the K rule
became slices of one node table: it builds its panels, cosh(t) - 1 and
log cosh(anu t) afresh and forms exp(log_g) from a new (points x nodes)
matrix.  ``reference_besseli_values`` is the former ``besseli_values``, which
tested its stop after every term.
"""

import numpy as np

from parafock.specfun import (
    _GL24_NODES,
    _GL24_WEIGHTS,
    _LOG_HALF_TINIEST,
    _MAX_TERMS,
    _RELATIVE_STOP,
    _gauss_panels,
    _log_cosh,
    _log_i_lead,
    _panel_cutoff,
)


def reference_k_bucket(anu, xb):
    """K_anu on one magnitude bucket, on 24-point half-unit panels out to its smallest point's cutoff."""
    n_panels = int(round(_panel_cutoff(anu, float(xb.min())) / 0.5))
    t, w = _gauss_panels(0.5 * np.arange(n_panels + 1), _GL24_NODES, _GL24_WEIGHTS)
    log_g = _log_cosh(t, anu)[None, :] - xb[:, None] * (np.cosh(t) - 1.0)[None, :]
    with np.errstate(over="ignore"):
        scaled = np.exp(log_g) @ w
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"e^x K_{anu}(x) exceeds the double range for x in [{xb.min()}, {xb.max()}]")
    return scaled * np.exp(-xb)


def reference_besselk_values(nu, xs):
    """``besselk_values`` without a store, each magnitude bucket integrated by ``reference_k_bucket``."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    buckets = np.floor(np.log2(xs) / 2.0).astype(int)
    for b in np.unique(buckets):
        mask = buckets == b
        out[mask] = reference_k_bucket(abs(nu), xs[mask])
    return out


def reference_besseli_values(nu, xs):
    """I_nu on a grid of positive arguments via the ascending series, nu > -1."""
    if not nu > -1:
        raise ValueError(f"need nu > -1, got {nu}")
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("all grid points must be positive")
    half = xs / 2.0
    log_half = np.log(half, out=np.full_like(half, _LOG_HALF_TINIEST), where=half > 0)
    term = np.exp(_log_i_lead(nu, log_half))
    total = term.copy()
    q = half * half
    for n in range(_MAX_TERMS):
        term = term * q / ((n + 1) * (nu + n + 1))
        total += term
        ratio = np.divide(term, total, out=np.zeros_like(total), where=total > 0)
        if float(ratio.max()) < _RELATIVE_STOP:
            return total
    raise RuntimeError("series failed to terminate")
