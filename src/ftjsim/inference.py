"""Neural-network inference on simulated crossbars.

Weights map to differential conductance pairs with one endpoint pinned at the
HRS; inputs are amplitude-encoded at a single read voltage inside the Ohmic
regime so the analog read stays exactly linear.  Accuracy is always reported
against the floating-point forward pass of the same weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .crossbar import (Crossbar, create_arrays, program_open_loop_stack,
                       program_write_verify_stack, read_vmm)
from .device import DeviceParams
from .errors import ConfigError
from .table import read_table
from .variability import VariabilityParams

READ_VOLTAGE = 0.1  # V, peak input amplitude of every layer's read


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths of a rectifier network with argmax readout."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output widths")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be >= 1")


def check_read_voltage(params: DeviceParams) -> None:
    """Refuse a device whose Ohmic regime ends below READ_VOLTAGE: its reads would not be linear."""
    if READ_VOLTAGE > params.conduction.v_ohmic_max:
        raise ConfigError(
            f"read voltage {READ_VOLTAGE} V exceeds the Ohmic regime edge "
            f"{params.conduction.v_ohmic_max} V; the analog read would not be linear"
        )


def map_weights(w: np.ndarray, params: DeviceParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Differential target conductances (G+, G-) and their scale, in S per unit weight.

    Positive weights raise G+ above the HRS with G- pinned there; negative
    weights mirror.  The largest weight magnitude lands exactly on the LRS.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    span = params.g_lrs - params.g_hrs
    w_max = float(np.max(np.abs(w)))
    scale = span / w_max if w_max > 0 else span
    g_pos = params.g_hrs + np.clip(w, 0.0, None) * scale
    g_neg = params.g_hrs + np.clip(-w, 0.0, None) * scale
    return g_pos, g_neg, scale


@dataclass
class AnalogLayer:
    pos: Crossbar
    neg: Crossbar
    scale: float  # siemens per unit weight


class AnalogNetwork:
    """A stack of differential crossbar layers with rectifiers in between."""

    def __init__(self, layers: list[AnalogLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = layers

    def forward(self, x: np.ndarray, t: float | None = None) -> np.ndarray:
        """Class scores for one sample (1-D) or a batch (2-D, samples first).

        Each layer's inputs are rescaled to the read voltage, pushed through
        both crossbars, and the differential currents are decoded back into
        weight units; the rescaling cancels exactly in the linear regime.
        Past the input, every array is the pass's own and is written in place.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        y = x[None, :] if single else x
        for i, layer in enumerate(self.layers):
            if i > 0:
                np.maximum(y, 0.0, out=y)
            # Per-sample amplitude normalization keeps voltages in range.  Past
            # the first layer y >= 0, so its row maximum is its largest |y|.
            m = np.max(np.abs(y) if i == 0 else y, axis=1, keepdims=True)
            np.maximum(m, 1.0, out=m)
            v = y / m if i == 0 else np.divide(y, m, out=y)
            v *= READ_VOLTAGE
            y = read_vmm(layer.pos, v, t, neg=layer.neg)
            y /= layer.scale * READ_VOLTAGE
            y *= m
        return y[0] if single else y


def float_forward(weights: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Reference forward pass: x @ W per layer with rectifiers in between."""
    y = np.asarray(x, dtype=float)
    for i, w in enumerate(weights):
        if i > 0:
            y = np.maximum(y, 0.0)
        y = y @ w
    return y


def program_network(
    weights: Sequence[np.ndarray],
    params: DeviceParams,
    vp: VariabilityParams,
    seeds: Sequence[int],
    mode: str = "open_loop",
    tol: float = 0.05,
) -> list[AnalogNetwork]:
    """One network per seed, every layer mapped and programmed onto a differential crossbar pair.

    ``mode`` selects continuous (idealized), open-loop or write-verify
    programming.  A seed is one Monte-Carlo replica: its arrays, G+ then G-
    of each layer in turn, are sampled by ``create_arrays`` as one population
    with one jitter stream.  All replicas are programmed in one stacked pass
    and each draws only from its own streams, so a network does not depend on
    which seeds it is programmed with.
    """
    if mode not in ("continuous", "open_loop", "write_verify"):
        raise ValueError(f"unknown programming mode {mode!r}")
    check_read_voltage(params)
    mapped = [map_weights(w, params) for w in weights]
    targets = [g for g_pos, g_neg, _ in mapped for g in (g_pos, g_neg)]
    nets, xbars = [], []
    for seed in seeds:
        arrays = create_arrays([g.shape for g in targets], params, vp, seed)
        nets.append(AnalogNetwork([AnalogLayer(pos=pos, neg=neg, scale=scale)
                                   for pos, neg, (_, _, scale)
                                   in zip(arrays[::2], arrays[1::2], mapped)]))
        xbars += arrays
    targets *= len(seeds)
    if mode == "continuous":
        for xbar, target in zip(xbars, targets):
            xbar.set_conductances(target)
    elif mode == "open_loop":
        program_open_loop_stack(xbars, targets)
    else:
        program_write_verify_stack(xbars, targets, tol=tol)
    return nets


# ---------------------------------------------------------------------------
# Datasets and training of the float baseline


DATASET_LABEL_COLUMN = "label"
MOMENTUM = 0.9  # heavy-ball coefficient of train_mlp


def make_blobs_dataset(
    n_samples: int = 512,
    n_features: int = 16,
    n_classes: int = 4,
    seed: int = 7,
    spread: float = 1.3,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Gaussian-blob classification set, features in [-1, 1]."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    labels = np.arange(n_samples) % n_classes
    x = centers[labels] + spread * rng.standard_normal((n_samples, n_features))
    x = x / np.max(np.abs(x))
    perm = rng.permutation(n_samples)
    return x[perm], labels[perm]


def load_dataset_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_table(path)
    if header[-1] != DATASET_LABEL_COLUMN or not header[0].startswith("feature_"):
        raise ValueError(f"unexpected dataset header {header!r}")
    if not rows:
        raise ValueError("no rows")
    x = np.array([row[:-1] for row in rows], dtype=float)
    labels = [int(row[-1]) for row in rows]
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature")
    low, high = min(labels), max(labels)
    if low < 0:
        raise ValueError(f"label {low} outside 0..{high}")
    # Labels 0..high without a gap need high < len(labels): any larger label leaves
    # a gap below len(labels), so only that range is searched, in Python integers.
    present = set(labels)
    gap = next((k for k in range(min(high + 1, len(labels))) if k not in present), None)
    if gap is not None:
        raise ValueError(f"label {gap} in 0..{high} has no sample")
    return x, np.array(labels)


def train_mlp(
    x: np.ndarray,
    y: np.ndarray,
    spec: MLPSpec,
    seed: int = 0,
    epochs: int = 400,
    lr: float = 1.0,
) -> list[np.ndarray]:
    """Full-batch softmax-regression training of the float baseline weights.

    Textbook backprop: every gradient of an epoch is taken at the weights the
    epoch started from.  Each layer moves by heavy-ball momentum,
    ``v <- MOMENTUM * v + lr * g`` and then ``w <- w - v``, from ``v = 0``, so
    the first epoch is a plain gradient step.  Training stops at the first
    forward pass whose logits classify every sample (``argmax == y``), after
    ``epochs`` updates at the latest.  Every per-epoch array is allocated
    once, written in place.
    """
    n_classes = spec.layer_sizes[-1]
    if x.shape[1] != spec.layer_sizes[0]:
        raise ValueError(f"dataset has {x.shape[1]} features, spec expects {spec.layer_sizes[0]}")
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:])
    ]
    onehot = np.eye(n_classes)[y]
    n = x.shape[0]
    # Slot i of each list is the input side of layer i: pre[i] is the output
    # of layer i - 1 (the logits last), relu[i] and mask[i] its rectified form
    # and sign, grad[i] its gradient.  relu[0] is x itself.
    pre = [None] + [np.empty((n, width)) for width in spec.layer_sizes[1:]]
    relu = [x] + [np.empty_like(a) for a in pre[1:-1]]
    mask = [None] + [np.empty(a.shape, dtype=bool) for a in pre[1:-1]]
    grad = [None] + [np.empty_like(a) for a in pre[1:]]
    step = [np.empty_like(w) for w in weights]
    velocity = [np.zeros_like(w) for w in weights]
    row = np.empty((n, 1))
    logits = pre[-1]
    for _ in range(epochs):
        for i, w in enumerate(weights):
            if i > 0:
                np.maximum(pre[i], 0.0, out=relu[i])
            np.matmul(relu[i], w, out=pre[i + 1])
        # A running maximum over the few class columns is the exact row max,
        # several times faster than a reduction along the short axis.
        np.copyto(row, logits[:, :1])
        for c in range(1, n_classes):
            np.maximum(row, logits[:, c:c + 1], out=row)
        logits -= row
        # Row maxima are now exactly 0 and the rest negative: a zero sum means every
        # true-class logit is a row maximum, and argmax settles ties (first wins).
        if np.vdot(logits, onehot) == 0 and np.array_equal(np.argmax(logits, axis=1), y):
            break
        np.exp(logits, out=logits)
        np.sum(logits, axis=1, keepdims=True, out=row)
        logits /= row
        np.subtract(logits, onehot, out=grad[-1])
        grad[-1] /= n
        for i in reversed(range(len(weights))):
            np.matmul(relu[i].T, grad[i + 1], out=step[i])
            if i > 0:
                np.matmul(grad[i + 1], weights[i].T, out=grad[i])
                np.greater(pre[i], 0, out=mask[i])
                grad[i] *= mask[i]
            step[i] *= lr
            velocity[i] *= MOMENTUM
            velocity[i] += step[i]
            weights[i] -= velocity[i]
    return weights


# ---------------------------------------------------------------------------
# Accuracy evaluation


@dataclass
class EvalReport:
    analog_accuracy: float
    baseline_accuracy: float
    degradation_points: float          # baseline - analog, in percentage points
    per_class_analog: np.ndarray


def _accuracy(scores: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == y))


def _per_class_accuracy(scores: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    pred = np.argmax(scores, axis=1)
    return np.array([
        float(np.mean(pred[y == k] == k)) if np.any(y == k) else np.nan
        for k in range(n_classes)
    ])


def evaluate(
    net: AnalogNetwork,
    x: np.ndarray,
    y: np.ndarray,
    baseline_scores: np.ndarray,
) -> EvalReport:
    """Classification accuracy of the analog network against its float twin.

    ``baseline_scores`` is ``float_forward(weights, x)`` of the programmed
    weights, scored once for any number of replicas.
    """
    n_classes = baseline_scores.shape[1]
    analog_scores = net.forward(x)
    acc_a = _accuracy(analog_scores, y)
    acc_f = _accuracy(baseline_scores, y)
    return EvalReport(
        analog_accuracy=acc_a,
        baseline_accuracy=acc_f,
        degradation_points=100.0 * (acc_f - acc_a),
        per_class_analog=_per_class_accuracy(analog_scores, y, n_classes),
    )
