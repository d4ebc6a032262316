"""Independent oracles the implementation is checked against.

Written before the code paths they guard and kept free of any fast-transform
or package internals: the spectral oracle evaluates the centered unitary DFT
as an explicit exponential-sum matrix product, the convolution oracle does an
O(N^4) direct circular convolution, the max-pool oracle picks each block's
entry by ``argmax``, and the energy-efficiency oracle is a second literal
transcription of the printed formulas.
"""

from __future__ import annotations

import math

import numpy as np


def centered_dft_matrix(n: int, inverse: bool = False) -> np.ndarray:
    """Matrix of the centered unitary 1D DFT: exponential sums, no FFT."""
    u = np.arange(n)[:, None] - n // 2
    m = np.arange(n)[None, :] - n // 2
    sign = 1j if inverse else -1j
    return np.exp(sign * 2 * np.pi * u * m / n) / math.sqrt(n)


def cft2_oracle(x: np.ndarray) -> np.ndarray:
    """Sum-form centered unitary 2D DFT."""
    h, w = x.shape
    return centered_dft_matrix(h) @ x @ centered_dft_matrix(w).T


def icft2_oracle(x: np.ndarray) -> np.ndarray:
    h, w = x.shape
    return centered_dft_matrix(h, inverse=True) @ x @ centered_dft_matrix(w, inverse=True).T


def forward_4f_oracle(bits: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Spectral path oracle: sum-form DFT, pointwise multiply, sum-form
    inverse, magnitude square."""
    field = icft2_oracle(cft2_oracle(bits.astype(complex)) * kernel)
    return np.abs(field) ** 2


def conv_4f_oracle(bits: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolution-theorem oracle: direct O(N^4) circular convolution of the
    input with the sum-form inverse DFT of the kernel (kernel impulse response
    centered on the grid), magnitude-squared. Even grid sides assumed.

    Grids up to 8x8 run the literal scalar quadruple loop; larger grids use
    the same direct sum with the shifted impulse response gathered up front
    (still O(N^4) explicit summation, no transform anywhere).
    """
    h_resp = icft2_oracle(kernel.astype(complex))
    rows, cols = bits.shape
    if rows * cols <= 64:
        out = np.zeros((rows, cols), dtype=complex)
        for q in range(rows):
            for r in range(cols):
                acc = 0.0 + 0.0j
                for m in range(rows):
                    for n in range(cols):
                        acc += bits[m, n] * h_resp[(q - m + rows // 2) % rows, (r - n + cols // 2) % cols]
                out[q, r] = acc
    else:
        q = np.arange(rows)[:, None, None, None]
        m = np.arange(rows)[None, :, None, None]
        r = np.arange(cols)[None, None, :, None]
        n = np.arange(cols)[None, None, None, :]
        shifted = h_resp[(q - m + rows // 2) % rows, (r - n + cols // 2) % cols]
        out = np.einsum("mn,qmrn->qr", bits.astype(complex), shifted)
    out /= math.sqrt(rows * cols)
    return np.abs(out) ** 2


def maxpool2_oracle(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max-pool of (B, K, H, W) by ``argmax`` over each block's four
    entries in row-major order; returns the pooled values and that index."""
    b, k, h, w = x.shape
    v = x.reshape(b, k, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        b, k, h // 2, w // 2, 4
    )
    idx = v.argmax(axis=-1)
    return np.take_along_axis(v, idx[..., None], axis=-1)[..., 0], idx


def maxpool2_backward_oracle(grad: np.ndarray, idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Scatter each pooled gradient to its block's ``argmax`` entry, zero elsewhere."""
    b, k, h, w = shape
    v = np.zeros((b, k, h // 2, w // 2, 4), dtype=grad.dtype)
    np.put_along_axis(v, idx[..., None], grad[..., None], axis=-1)
    return v.reshape(b, k, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, k, h, w)


def ops_per_watt_fft_oracle(M, N, m, n, i, k, f, P) -> float:
    """Literal second transcription of the FFT-method energy formula."""
    inner = 10.0 * M * math.log((2 * i - 1) * M, 2) * N * math.log(N, 2) + m * n
    return inner * i * k * f / P


def ops_per_watt_brute_oracle(M, N, m, n, i, k, f, P) -> float:
    return (M * N * m * n) * i * f * k / P
