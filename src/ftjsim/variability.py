"""Variability parameters and device-to-device dispersion.

Cycle-to-cycle jitter is data: each caller draws it from its own stream with
``device.truncated_normal`` at the ``sigma_c2c`` held here, and hands it to the
pure ``device.pulse_response``.  All randomness is driven by numpy Generators.
``VariabilityParams`` holds the spreads only; a seed is an argument of the code
that draws, derived from the master seed with ``derive_seed``.
``sample_endpoint_arrays`` takes one draw in device order from the generator
it is handed, so device i's endpoints depend only on the seed and on i, never
on how many are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams

# Largest device-to-device spread of ln(G): one sigma multiplies a conductance
# by e^10, far beyond any measured population.  numpy's normal sampler never
# returns |z| > 14, so a sampled endpoint moves by at most e^140 (about 6e60)
# and stays finite and > 0 for any endpoint conductance within 1e+-240 S.
SIGMA_D2D_MAX = 10.0
# Largest relative cycle-to-cycle spread of a pulse's step, far past any measured
# device (beyond 1/3 a draw can already reverse a step); it keeps the spread that
# bench estimates from 10^4 draws finite.
SIGMA_C2C_MAX = 10.0


@dataclass(frozen=True)
class VariabilityParams:
    sigma_c2c: float = 0.10        # relative std of each pulse's state increment
    sigma_d2d_hrs: float = 0.10    # std of ln(HRS conductance) across devices
    sigma_d2d_lrs: float = 0.10    # std of ln(LRS conductance) across devices

    def __post_init__(self) -> None:
        for name, bound in (("sigma_c2c", SIGMA_C2C_MAX), ("sigma_d2d_hrs", SIGMA_D2D_MAX),
                            ("sigma_d2d_lrs", SIGMA_D2D_MAX)):
            if not (0 <= getattr(self, name) <= bound):
                raise ValueError(f"{name} must lie in [0, {bound:g}], got {getattr(self, name)}")


def sample_endpoint_arrays(
    n: int, params: DeviceParams, vp: VariabilityParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-device endpoint conductances with log-normal dispersion.

    One draw in device order: a C-order ``(n, 2)`` block of standard normals,
    row i holding device i's HRS and LRS normals (stream entries 2i and
    2i + 1), so device i does not depend on n.  If a draw inverts the
    endpoint ordering the pair is swapped.
    """
    z = rng.standard_normal((n, 2))
    g_hrs = params.g_hrs * np.exp(vp.sigma_d2d_hrs * z[:, 0])
    g_lrs = params.g_lrs * np.exp(vp.sigma_d2d_lrs * z[:, 1])
    inverted = g_hrs >= g_lrs
    if inverted.any():
        g_hrs[inverted], g_lrs[inverted] = g_lrs[inverted].copy(), g_hrs[inverted].copy()
    return g_hrs, g_lrs


def derive_seed(master_seed: int, stream_index: int) -> int:
    """Stable 64-bit sub-seed: child ``stream_index`` of the master seed.

    Sub-seeds are SeedSequence(master, spawn_key=(index,)) states, so every
    consumer gets an independent stream from one top-level seed.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
    return int(ss.generate_state(1, np.uint64)[0])
