"""The engine's former composite Gauss-Legendre rules, kept as references for ``specfun._gauss_panels``.

``reference_grid_rule`` is the per-panel loop ``QuadratureGrid`` ran on its
boundaries with a 20-point rule; ``reference_k_rule`` is the tiled half-unit
form ``specfun._k_bucket`` ran with a 24-point rule.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def reference_grid_rule(boundaries):
    """Nodes and weights of the 20-point rule on every panel between consecutive ``boundaries``."""
    ref_x, ref_w = leggauss(20)
    xs = []
    ws = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        half = 0.5 * (b - a)
        xs.append(half * ref_x + (a + half))
        ws.append(half * ref_w)
    return np.concatenate(xs), np.concatenate(ws)


def reference_k_rule(n_panels):
    """Nodes and weights of the 24-point rule on ``n_panels`` half-unit panels from 0."""
    nodes, weights = leggauss(24)
    width = 0.5
    starts = width * np.arange(n_panels)
    t = (0.5 * width * nodes[None, :] + (starts + 0.5 * width)[:, None]).ravel()
    w = np.tile(0.5 * width * weights, n_panels)
    return t, w
