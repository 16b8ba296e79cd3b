"""Least-squares phase unwrapping and vortex (residue) detection.

The unwrapped phase θ is the least-squares solution of ∇θ = (wrapped
gradient), obtained by solving the Poisson equation ∇²θ = ∇·(wrapped
gradient) with Neumann boundaries by a fast cosine transform.  When the
wrapped gradient is curl-free (no residues) the result is congruent to the
input modulo 2π and the rounding step makes the congruence exact.

The orthonormal DCT-II and its inverse run on `numpy.fft` by Makhoul's
even-odd reordering ("A fast cosine transform in one and two dimensions",
IEEE TASSP 28, 1980): one complex FFT of length N per axis.

Residues are quantized circulations of the wrapped gradient around grid
plaquettes; a charge ±1 marks a phase vortex, around which no single-valued
unwrapping exists.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wrap_to_pi", "phase_residues", "unwrap_least_squares", "dctn",
           "idctn"]

_TAU = 2.0 * np.pi


def wrap_to_pi(x: np.ndarray) -> np.ndarray:
    """Wrap values to the principal interval (−π, π]."""
    return np.pi - np.mod(np.pi - x, _TAU)


def phase_residues(phase: np.ndarray) -> np.ndarray:
    """Plaquette charges of the wrapped phase gradient.

    Returns an (nx−1, ny−1) integer array; entry (i, j) is the winding
    number of the loop through grid points (i,j) → (i+1,j) → (i+1,j+1) →
    (i,j+1), so ±1 flags a singly charged vortex inside the plaquette.
    """
    dx = wrap_to_pi(np.diff(phase, axis=0))      # (nx-1, ny)
    dy = wrap_to_pi(np.diff(phase, axis=1))      # (nx, ny-1)
    loop = dx[:, :-1] + dy[1:, :] - dx[:, 1:] - dy[:-1, :]
    return np.rint(loop / _TAU).astype(int)


def _dct_axis(x: np.ndarray, axis: int) -> np.ndarray:
    # even samples, then odd samples reversed: X_k = Re(e^{−iπk/2N} V_k)
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    v = np.concatenate((x[..., ::2], x[..., 1::2][..., ::-1]), axis=-1)
    w = np.exp(-0.5j * np.pi * np.arange(n) / n)
    y = np.real(w * np.fft.fft(v, axis=-1)) * np.sqrt(2.0 / n)
    y[..., 0] *= np.sqrt(0.5)
    return np.moveaxis(y, -1, axis)


def _idct_axis(y: np.ndarray, axis: int) -> np.ndarray:
    y = np.moveaxis(y, axis, -1)
    n = y.shape[-1]
    z = y * np.sqrt(0.5 * n)
    z[..., 0] *= np.sqrt(2.0)
    # z_N = 0 closes the pairing V_k = e^{iπk/2N} (z_k − i z_{N−k})
    zr = np.concatenate((np.zeros_like(z[..., :1]), z[..., :0:-1]), axis=-1)
    w = np.exp(0.5j * np.pi * np.arange(n) / n)
    v = np.real(np.fft.ifft(w * (z - 1j * zr), axis=-1))
    x = np.empty_like(v)
    h = (n + 1) // 2
    x[..., ::2] = v[..., :h]
    x[..., 1::2] = v[..., h:][..., ::-1]
    return np.moveaxis(x, -1, axis)


def dctn(a: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of a real array along every axis (any side ≥ 1)."""
    out = np.asarray(a, dtype=float)
    for axis in range(out.ndim):
        out = _dct_axis(out, axis)
    return out


def idctn(a: np.ndarray) -> np.ndarray:
    """Inverse of `dctn`: the orthonormal DCT-III along every axis."""
    out = np.asarray(a, dtype=float)
    for axis in range(out.ndim):
        out = _idct_axis(out, axis)
    return out


def _poisson_dct(rho: np.ndarray) -> np.ndarray:
    nx, ny = rho.shape
    r = dctn(rho)
    ix = np.arange(nx)[:, None]
    jy = np.arange(ny)[None, :]
    denom = 2.0 * (np.cos(np.pi * ix / nx) + np.cos(np.pi * jy / ny) - 2.0)
    denom[0, 0] = 1.0
    r = r / denom
    r[0, 0] = 0.0
    return idctn(r)


def unwrap_least_squares(phase: np.ndarray):
    """Unwrap a 2D phase map; returns (theta, residues).

    The solution is pinned so that θ equals the wrapped input at the first
    residue-free point (up placement of 2π sheets elsewhere).  With no
    residues the output is congruent to the input modulo 2π; with residues
    the least-squares surface is returned as-is and the caller should mask
    the cores using the residue map.
    """
    phase = np.asarray(phase, dtype=float)
    res = phase_residues(phase)

    dx = wrap_to_pi(np.diff(phase, axis=0))
    dy = wrap_to_pi(np.diff(phase, axis=1))
    rho = np.zeros_like(phase)
    rho[:-1, :] += dx
    rho[1:, :] -= dx
    rho[:, :-1] += dy
    rho[:, 1:] -= dy
    theta = _poisson_dct(rho)
    theta = theta + (phase.flat[0] - theta.flat[0])
    if not np.any(res):
        theta = phase + _TAU * np.rint((theta - phase) / _TAU)
    return theta, res
