"""Scalar loop forms of the vectorized quadrature and differencing kernels.

These are the slice-by-slice implementations the package used before its
kernels became whole-array code; tests compare the array kernels against
them (bit for bit where the arithmetic is unchanged).
"""

import csv

import numpy as np

from rodwave.sampled import fd_derivative, simpson_weights


def blockwise_derivative_1d(values, h, kink_mask):
    """Differentiate a 1D slice between kink samples, one block at a time."""
    n = len(values)
    bounds = [0] + [i for i in range(1, n - 1) if kink_mask[i]] + [n - 1]
    deriv = np.empty(n)
    valid = np.ones(n, dtype=bool)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= 2:
            seg = fd_derivative(values[a:b + 1], h)
            deriv[a:b] = seg[:-1]
            if b == n - 1:
                deriv[b] = seg[-1]
        else:
            d1 = (values[b] - values[a]) / h
            deriv[a] = d1
            valid[a] = False
            if b == n - 1:
                deriv[b] = d1
                valid[b] = False
    return deriv, valid


def axis_derivative(arr, h, kinks, axis):
    """:func:`blockwise_derivative_1d` applied to every slice along ``axis``."""
    out = np.empty_like(arr)
    ok = np.empty(arr.shape, dtype=bool)
    if axis == 0:
        for j in range(arr.shape[1]):
            out[:, j], ok[:, j] = blockwise_derivative_1d(arr[:, j], h, kinks[:, j])
    else:
        for i in range(arr.shape[0]):
            out[i], ok[i] = blockwise_derivative_1d(arr[i], h, kinks[i])
    return out, ok


def residual_Q(fg):
    """Constitutive residual (rho = kappa = 1) from the loop derivatives."""
    ht = fg.t[1] - fg.t[0]
    hx = fg.x[1] - fg.x[0]
    plus, minus = kink_masks(fg)
    kinks = plus | minus
    vt, ok_t = axis_derivative(fg.v, ht, kinks, axis=0)
    g_res = vt - fg.p
    wt = simpson_weights(len(fg.t), ht)
    total = 0.0
    for seg, (j0, j1) in enumerate(fg.segment_windows()):
        cols = slice(j0, j1 + 1)
        kseg = kinks[:, cols]
        vx, ok_x = axis_derivative(fg.v[:, cols], hx, kseg, axis=1)
        h_res = vx - fg.s[:, cols] + fg.f_seg[seg][:, None]
        q = g_res[:, cols] ** 2 / 4.0 + h_res ** 2 / 4.0
        q = np.where(ok_t[:, cols] & ok_x & ~kseg, q, 0.0)
        wx = simpson_weights(j1 - j0 + 1, hx)
        total += float(wt @ q @ wx)
    return total


def kink_masks(fg):
    """The two characteristic-lattice masks from full-grid residues."""
    iu = np.arange(len(fg.t))[:, None]
    ju = np.arange(len(fg.x))[None, :]
    step = fg.qt * fg.qx
    plus = (iu * fg.qx + (ju - fg.mesh.N * fg.qx) * fg.qt) % step
    minus = (iu * fg.qx - (ju - fg.mesh.N * fg.qx) * fg.qt) % step
    return plus == 0, minus == 0


def blockwise_simpson(values, h, splits):
    """Composite Simpson split at interior sample indices, block by block."""
    n = len(values)
    bounds = [0] + sorted({int(s) for s in splits if 0 < s < n - 1}) + [n - 1]
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = b - a
        if m == 0:
            continue
        start = a
        if m % 2 == 1:
            total += 0.5 * h * (values[a] + values[a + 1])
            start = a + 1
            if start == b:
                continue
        total += float(simpson_weights(b - start + 1, h) @ values[start:b + 1])
    return total


def write_fields_csv(fg, path):
    """The fields CSV written cell by cell through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v", "r", "p", "s", "e"])
        for i, t in enumerate(fg.t):
            for j, x in enumerate(fg.x):
                writer.writerow([f"{val:.12g}" for val in
                                 (t, x, fg.v[i, j], fg.r[i, j], fg.p[i, j],
                                  fg.s[i, j], fg.e[i, j])])
