"""Independent oracles the implementation is checked against.

Written before the code paths they guard and kept free of any fast-transform
or package internals: the spectral oracle evaluates the centered unitary DFT
as an explicit exponential-sum matrix product, the convolution oracle does an
O(N^4) direct circular convolution, the max-pool oracle picks each block's
entry by ``argmax``, and the energy-efficiency oracle is a second literal
transcription of the printed formulas.

The stage-1 oracles at the end pin bits, not mathematics: they are the
straightforward forms that the blocked conv engine, the pruned small-grid
transforms, the in-place optimizer and the centre-only high-pass mask
replaced, with the same transforms in the same order, so the implementation
must equal them bitwise. They delegate the kernel resample and its adjoint
to the implementation; ``resample_spectrum_oracle``, the FFT form those
dense operators replaced, checks both to rounding. ``finetune_stage2_oracle``
pins the stage-2 head loop the same way, and ``finetune_stage2_gram_oracle``
its Gram form for small capture sets.

``capture_oracle`` and ``features_tiled_oracle`` run single images and tiled
frames through the physics reference in ``optics``, the paths the conv
engine replaced in the optical capture.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import scipy.fft

from opticonv import network
from opticonv.datapipe import tile, untile
from opticonv.optics import FieldPlane, camera_capture, ideal_aperture, multi_kernel_forward


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


# ---------------------------------------------------------------------------
# stage-1 bit-pinning oracles


def highpass_mask_oracle(grid: int, dtype=np.float64) -> np.ndarray:
    """Full-grid high-pass mask: ones with the centre 3x3 bins zeroed."""
    mask = np.ones((grid, grid), dtype=dtype)
    c = grid // 2
    mask[c - 1 : c + 2, c - 1 : c + 2] = 0
    return mask


def resample_spectrum_oracle(
    spec: np.ndarray, window: tuple[int, int], sizes: tuple[int, int]
) -> np.ndarray:
    """The window-lag resample by transforms: each axis whose length changes
    goes to its lags by an inverse FFT, keeps lags [-(h-1), h-1] on a zeroed
    grid of the new length and comes back by a forward FFT."""
    for axis, h, size in zip((-2, -1), window, sizes):
        n = spec.shape[axis]
        if n == size:
            continue
        lags = np.moveaxis(scipy.fft.ifft(spec, axis=axis), axis, -1)
        moved = np.zeros((*lags.shape[:-1], size), dtype=lags.dtype)
        moved[..., :h] = lags[..., :h]
        moved[..., size - h + 1 :] = lags[..., n - h + 1 :]
        spec = np.moveaxis(scipy.fft.fft(moved), -1, axis)
    return spec


def conv_window_oracle(
    spectrum: np.ndarray, kernel_spec: np.ndarray, window: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The conv forward in one shot over the batch: every input spectrum
    (B, n_h, n_w) times every kernel spectrum (K, n_h, n_w), one inverse
    transform, the crop to ``window`` and |U|^2. Returns the intensity and
    the cropped fields, each (B, K, h, w)."""
    h, w = window
    fields = scipy.fft.ifft2(spectrum[:, None] * kernel_spec[None])[..., :h, :w]
    return fields.real**2 + fields.imag**2, fields


def loss_and_grads_oracle(params, bits: np.ndarray, labels: np.ndarray, dtype: str):
    """One stage-1 loss, accuracy and gradient dict: the conv forward and the
    backward's zero-padded transform each in one shot over the batch, and the
    high-pass mask as a full-grid multiply. The binarization (w > 0), the
    straight-through gradient (passed where |w| <= STE_CLIP) and the head
    are written out. The head's three feature-sized GEMMs, the pool and the
    gain backward run in the features' dtype, the rest in float64."""
    rdtype = np.float32 if dtype == "float32" else np.float64
    g = params.grid
    h, w = params.image_hw
    bits = np.asarray(bits, dtype=rdtype)
    sizes = tuple(min(scipy.fft.next_fast_len(2 * s - 1), g) for s in (h, w))
    bank = (params.fourier_kernels > 0).astype(rdtype)
    if params.highpass_mask_enabled:
        bank = bank * highpass_mask_oracle(g, rdtype)
    bank = scipy.fft.ifftshift(bank, axes=(-2, -1))
    kernel_spec = network._resample_spectrum(bank, (h, w), sizes)
    spectrum = scipy.fft.fft2(bits, s=sizes)
    raw, fields = conv_window_oracle(spectrum, kernel_spec, (h, w))

    feats, peak = network._normalize_features(raw)
    b, k = feats.shape[:2]
    pooled = network._maxpool2(feats)
    flat = pooled.reshape(b, -1)

    # The head: the three feature-sized GEMMs in the features' dtype; the
    # bias adds, fc2, the softmax and the loss in float64.
    fc1_w = params.fc1_w.astype(rdtype)
    pre1 = flat @ fc1_w + params.fc1_b
    hidden = np.maximum(pre1, 0.0)
    logits = hidden @ params.fc2_w + params.fc2_b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    loss = -float(np.mean(np.log(p[rows, labels] + 1e-300)))
    acc = float(np.mean(logits.argmax(axis=1) == labels))
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0
    dlogits = (p - onehot) / b
    dpre1 = (dlogits @ params.fc2_w.T) * (pre1 > 0)
    grads = {
        "fc2_w": hidden.T @ dlogits,
        "fc2_b": dlogits.sum(axis=0),
        "fc1_w": (flat.T @ dpre1.astype(rdtype)).astype(np.float64),
        "fc1_b": dpre1.sum(axis=0),
    }

    # The pool and gain backward in the features' dtype.
    dpooled = (dpre1.astype(rdtype) @ fc1_w.T).reshape(pooled.shape)
    dfeats = network._maxpool2_backward(dpooled, feats, pooled)
    draw = dfeats / peak[:, None, None, None]
    dpeak = -(dfeats * feats).reshape(b, -1).sum(axis=1) / peak
    draw_flat = draw.reshape(b, -1)
    draw_flat[np.arange(b), raw.reshape(b, -1).argmax(axis=1)] += dpeak
    draw = draw_flat.reshape(b, k, h, w)

    grad_spec = scipy.fft.fft2(2.0 * fields * draw, s=sizes)
    corr = np.zeros((k, *sizes), dtype=grad_spec.dtype)
    for one, spec in zip(grad_spec, spectrum):
        corr += one * spec.conj()
    dbank = network._kernel_gradient(corr, (h, w), g).astype(np.float64)
    dmasters = dbank * (np.abs(params.fourier_kernels) <= network.STE_CLIP)
    if params.highpass_mask_enabled:
        dmasters = dmasters * highpass_mask_oracle(g)
    grads["fourier_kernels"] = dmasters
    return loss, acc, grads


def momentum_step_oracle(
    params: dict, velocity: dict, grads: dict, lr: float, momentum: float
) -> dict:
    """Heavy-ball step out of place: the velocity is the gradient at the
    first step and ``momentum * v + g`` after it; the new parameter is
    ``p - lr * v``. Updates ``velocity`` and returns the new parameters."""
    new = {}
    for name, p in params.items():
        g = grads[name]
        velocity[name] = g if name not in velocity else momentum * velocity[name] + g
        new[name] = p - lr * velocity[name]
    return new


def train_stage1_oracle(dataset, config, params):
    """Stage-1 training as a loop of the oracle step, with the mask
    re-applied to the masters by a full-grid multiply after each step."""
    bits, labels = dataset
    rng = np.random.default_rng(config.seed)
    velocity: dict = {}
    trace = []
    for epoch in range(config.epochs_stage1):
        order = rng.permutation(len(bits))
        losses, accs = [], []
        for s in range(0, len(bits), config.batch_size):
            sel = order[s : s + config.batch_size]
            loss, acc, grads = loss_and_grads_oracle(params, bits[sel], labels[sel], config.dtype)
            current = {name: getattr(params, name) for name in network._PARAM_NAMES}
            new = momentum_step_oracle(current, velocity, grads, config.lr_stage1, config.momentum)
            if params.highpass_mask_enabled:
                new["fourier_kernels"] = new["fourier_kernels"] * highpass_mask_oracle(params.grid)
            params = replace(params, **new)
            losses.append(loss)
            accs.append(acc)
        trace.append(
            {
                "epoch": epoch,
                "split": "train",
                "loss": float(np.mean(losses)),
                "accuracy": float(np.mean(accs)),
            }
        )
    return params, trace


def finetune_stage2_oracle(params, captured, config):
    """Stage 2 as a plain loop: the features pooled by the ``argmax`` oracle
    and cast once to the config's dtype, a seeded permutation per epoch,
    the head written out as in ``loss_and_grads_oracle`` (its two
    feature-sized GEMMs in the config's dtype, the rest in float64) and
    ``momentum_step_oracle`` on the four head parameters."""
    features, labels = captured
    rdtype = np.float32 if config.dtype == "float32" else np.float64
    features = np.asarray(features, dtype=np.float64)
    flat_all = maxpool2_oracle(features)[0].reshape(len(features), -1).astype(rdtype)
    labels = np.asarray(labels)
    rng = np.random.default_rng(config.seed + 1)
    velocity: dict = {}
    trace = []
    for epoch in range(config.epochs_stage2):
        order = rng.permutation(len(flat_all))
        losses, accs = [], []
        for s in range(0, len(flat_all), config.batch_size):
            sel = order[s : s + config.batch_size]
            flat, y = flat_all[sel], labels[sel]
            b = len(y)
            pre1 = flat @ params.fc1_w.astype(rdtype) + params.fc1_b
            hidden = np.maximum(pre1, 0.0)
            logits = hidden @ params.fc2_w + params.fc2_b
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            rows = np.arange(b)
            losses.append(-float(np.mean(np.log(p[rows, y] + 1e-300))))
            accs.append(float(np.mean(logits.argmax(axis=1) == y)))
            onehot = np.zeros_like(p)
            onehot[rows, y] = 1.0
            dlogits = (p - onehot) / b
            dpre1 = (dlogits @ params.fc2_w.T) * (pre1 > 0)
            grads = {
                "fc1_w": (flat.T @ dpre1.astype(rdtype)).astype(np.float64),
                "fc1_b": dpre1.sum(axis=0),
                "fc2_w": hidden.T @ dlogits,
                "fc2_b": dlogits.sum(axis=0),
            }
            current = {name: getattr(params, name) for name in grads}
            new = momentum_step_oracle(current, velocity, grads, config.lr_stage2, config.momentum)
            params = replace(params, **new)
        trace.append(
            {
                "epoch": epoch,
                "split": "stage2-train",
                "loss": float(np.mean(losses)),
                "accuracy": float(np.mean(accs)),
            }
        )
    return params, trace


def finetune_stage2_gram_oracle(params, captured, config):
    """Stage 2's Gram form as a plain loop: the features pooled and cast as
    in ``finetune_stage2_oracle``; ``base = flat_all @ fc1_w`` and ``gram =
    flat_all @ flat_all.T`` once in the config's dtype; each step's fc1
    product ``base[sel] + gram[sel] @ coef`` with the (N, H) coefficients
    in float64, and ``momentum_step_oracle`` on the coefficients (whose
    gradient is the batch's dpre1 in rows ``sel``, zero elsewhere) and the
    other three head parameters. fc1_w comes back as ``fc1_w +
    flat_all.T @ coef`` in float64."""
    features, labels = captured
    rdtype = np.float32 if config.dtype == "float32" else np.float64
    features = np.asarray(features, dtype=np.float64)
    flat_all = maxpool2_oracle(features)[0].reshape(len(features), -1).astype(rdtype)
    labels = np.asarray(labels)
    base = flat_all @ params.fc1_w.astype(rdtype)
    gram = (flat_all @ flat_all.T).astype(np.float64)
    head = {
        "coef": np.zeros((len(flat_all), params.fc1_w.shape[1])),
        "fc1_b": params.fc1_b,
        "fc2_w": params.fc2_w,
        "fc2_b": params.fc2_b,
    }
    rng = np.random.default_rng(config.seed + 1)
    velocity: dict = {}
    trace = []
    for epoch in range(config.epochs_stage2):
        order = rng.permutation(len(flat_all))
        losses, accs = [], []
        for s in range(0, len(flat_all), config.batch_size):
            sel = order[s : s + config.batch_size]
            y = labels[sel]
            b = len(y)
            pre1 = base[sel] + gram[sel] @ head["coef"] + head["fc1_b"]
            hidden = np.maximum(pre1, 0.0)
            logits = hidden @ head["fc2_w"] + head["fc2_b"]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            rows = np.arange(b)
            losses.append(-float(np.mean(np.log(p[rows, y] + 1e-300))))
            accs.append(float(np.mean(logits.argmax(axis=1) == y)))
            onehot = np.zeros_like(p)
            onehot[rows, y] = 1.0
            dlogits = (p - onehot) / b
            dpre1 = (dlogits @ head["fc2_w"].T) * (pre1 > 0)
            coef = np.zeros_like(head["coef"])
            coef[sel] = dpre1
            grads = {
                "coef": coef,
                "fc1_b": dpre1.sum(axis=0),
                "fc2_w": hidden.T @ dlogits,
                "fc2_b": dlogits.sum(axis=0),
            }
            head = momentum_step_oracle(head, velocity, grads, config.lr_stage2, config.momentum)
        trace.append(
            {
                "epoch": epoch,
                "split": "stage2-train",
                "loss": float(np.mean(losses)),
                "accuracy": float(np.mean(accs)),
            }
        )
    fc1_w = params.fc1_w + flat_all.T.astype(np.float64) @ head["coef"]
    return replace(params, fc1_w=fc1_w, fc1_b=head["fc1_b"], fc2_w=head["fc2_w"], fc2_b=head["fc2_b"]), trace


# ---------------------------------------------------------------------------
# optical capture


def _optics_maps(frame: np.ndarray, params, config) -> np.ndarray:
    """Intensity (K, G, G) of one micromirror frame through every kernel of
    the binarized bank: kernel pairs on diffraction orders 0 and 1 behind an
    ideal aperture, in kernel order."""
    g = params.grid
    bank = network.binarized_kernels(params)
    plane = FieldPlane.from_bits(frame, config.dmd_pitch)
    maps = []
    for k0 in range(0, len(bank), 2):
        pair = list(bank[k0 : k0 + 2])
        aperture = ideal_aperture(range(len(pair)))
        maps += multi_kernel_forward(plane, pair, config, aperture)
    return np.stack(maps)


def _unit_peak(feats: np.ndarray) -> np.ndarray:
    """Normalized to unit peak per image (an all-zero image stays zero: the
    peak is floored as in the engine)."""
    peak = np.maximum(feats.reshape(len(feats), -1).max(axis=1), network._NORM_EPS)
    return feats / peak[:, None, None, None]


def capture_oracle(params, bits: np.ndarray, config, noise=None) -> np.ndarray:
    """Per-image optical features through the optics module: each image
    centred on a zeroed G x G frame, the frame's kernel maps through the
    camera model on the full grid, the image window cropped and normalized.
    ``noise`` must draw no normals (sigma 0): the oracle's camera sees the
    full frame, so its noise stream differs from the capture's."""
    assert noise is None or noise.sigma == 0
    g = params.grid
    h, w = params.image_hw
    r0, c0 = (g - h) // 2, (g - w) // 2
    feats = np.empty((len(bits), params.n_kernels, h, w))
    for i, img in enumerate(bits):
        frame = np.zeros((g, g), dtype=np.uint8)
        frame[r0 : r0 + h, c0 : c0 + w] = img
        feats[i] = camera_capture(_optics_maps(frame, params, config), noise)[:, r0 : r0 + h, c0 : c0 + w]
    return _unit_peak(feats)


def features_tiled_oracle(params, bits: np.ndarray, layout, config) -> np.ndarray:
    """Noise-free tiled features through the optics module: each frame's
    kernel maps, the cells' image windows cut out by ``untile`` and
    normalized to unit peak per image."""
    cells = []
    for s in range(0, len(bits), layout.capacity):
        group = bits[s : s + layout.capacity]
        maps = _optics_maps(tile(list(group), layout), params, config)
        h, w = params.image_hw
        cells += [cell[..., :h, :w] for cell in untile(maps, layout)[: len(group)]]
    return _unit_peak(np.stack(cells))
