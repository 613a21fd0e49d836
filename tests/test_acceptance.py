"""Acceptance suite: one test per headline criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; each
criterion also asserts, so the suite is red if any figure is missed.
"""

from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from ftjsim.conduction import (
    current,
    fit_ohmic,
    fit_poole_frenkel,
    nonlinearity_ratio,
)
from ftjsim.crossbar import Crossbar, read_vmm, sneak_ratio, write_cell
from ftjsim.device import (
    DeviceParams,
    extract_memory_window,
    fit_update_curve,
    hysteresis_loop,
    pulse_response,
    run_sequence,
    truncated_normal,
    write_energy,
)
from ftjsim.inference import (
    MLPSpec,
    evaluate,
    float_forward,
    make_blobs_dataset,
    program_network,
    train_mlp,
)
from ftjsim.variability import VariabilityParams, derive_seed, sample_endpoint_arrays

from conftest import synthetic_pf_sweep
from test_crossbar import sneak_oracle, vmm_oracle

PARAMS = DeviceParams()
QUIET = VariabilityParams(sigma_c2c=0.0, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{criterion}] {detail}")
    assert ok, f"{criterion}: {detail}"


def test_01_on_off_ratio_and_temperature_invariance():
    p = PARAMS.conduction
    ratios = np.array([
        current(0.1, p.g_lrs_ref, t, p) / current(0.1, p.g_lrs_ref / p.on_off, t, p)
        for t in np.linspace(300.0, 360.0, 25)
    ])
    deviation = float(np.max(np.abs(ratios / ratios[0] - 1)))
    ok = ratios[0] >= 7.0 * (1 - 1e-12) and deviation < 1e-9  # >= 7 up to float rounding
    check("1 on/off", ok,
          f"ratio {ratios[0]:.6f} at 0.1 V, max relative deviation {deviation:.2e} over 300-360 K")


def test_02_nonlinearity_self_selection():
    ratio = nonlinearity_ratio(0.5, 300.0, PARAMS.conduction)
    ok = ratio >= 40.0 and abs(ratio - 49.3) < 0.1
    check("2 self-selection", ok, f"I(0.5 V)/I(0.25 V) = {ratio:.2f} (>= 40, expected ~49.3)")


def test_03_memory_window():
    loop = hysteresis_loop(PARAMS, -2.0, 3.0, 101)  # 0.05 V grid step
    v_set, v_reset, window = extract_memory_window(loop)
    ok = abs(window - 1.4) <= 0.05 + 1e-12 and abs(v_set - (-0.6)) <= 0.05 + 1e-12
    check("3 memory window", ok,
          f"window {window:.3f} V (SET onset {v_set:.3f} V, RESET onset {v_reset:.3f} V)")


def test_04_depression_write_energy():
    e = write_energy(PARAMS.g_hrs, 2.4, 50e-6)
    ok = e < 1e-12 and abs(e - 0.41e-12) < 0.01e-12
    check("4 write energy", ok, f"HRS +2.4 V / 50 us pulse costs {e*1e12:.3f} pJ (< 1 pJ)")


def test_05_submicron_current():
    small = replace(PARAMS, area=1.0)
    i = current(0.1, small.g_lrs, 300.0, small.conduction)
    ok = i < 1e-12 and abs(i - 6.9e-14) < 0.1e-14
    check("5 sub-um current", ok, f"1 um^2 LRS read at 0.1 V draws {i:.3e} A (< 1 pA)")


def test_06_fitters_recover_barriers():
    temps = [300.0, 310.0, 320.0, 330.0, 340.0, 350.0, 360.0]
    pf_v = np.linspace(0.2, 0.3, 400)
    oh_v = np.linspace(0.01, 0.1, 50)
    worst_clean, worst_noisy = 0.0, 0.0
    for phi_b in (0.10, 0.15, 0.20):
        clean = fit_poole_frenkel(synthetic_pf_sweep(pf_v, temps, phi_b=phi_b, beta=0.4))
        worst_clean = max(worst_clean, abs(clean.phi_b / phi_b - 1))
        rng = np.random.default_rng(2026)
        noisy = fit_poole_frenkel(
            synthetic_pf_sweep(pf_v, temps, phi_b=phi_b, beta=0.4, noise=0.01, rng=rng))
        worst_noisy = max(worst_noisy, abs(noisy.phi_b / phi_b - 1))
    worst_oh_clean, worst_oh_noisy = 0.0, 0.0
    for e_a in (0.10, 0.15, 0.20):
        clean = fit_ohmic(synthetic_pf_sweep(oh_v, temps, phi_b=e_a, beta=0.0))
        worst_oh_clean = max(worst_oh_clean, abs(clean.e_a / e_a - 1))
        rng = np.random.default_rng(2026)
        noisy = fit_ohmic(
            synthetic_pf_sweep(oh_v, temps, phi_b=e_a, beta=0.0, noise=0.01, rng=rng))
        worst_oh_noisy = max(worst_oh_noisy, abs(noisy.e_a / e_a - 1))
    ok = (worst_clean < 0.02 and worst_noisy < 0.05
          and worst_oh_clean < 0.02 and worst_oh_noisy < 0.05)
    check("6 fitters", ok,
          f"barrier error: clean {worst_clean*100:.2g}% / 1%-noise {worst_noisy*100:.2f}%; "
          f"activation error: clean {worst_oh_clean*100:.2g}% / 1%-noise {worst_oh_noisy*100:.2f}%"
          " (bounds 2% / 5%)")


def test_07_update_curve_round_trip():
    worst = 0.0
    for nu in (0.5, 1.9, 4.3):
        params = DeviceParams(nu_p=nu, nu_d=nu)
        trace = run_sequence(50, 50, params)
        for direction in ("potentiation", "depression"):
            branch = [pt for pt in trace if pt.direction == direction]
            fit = fit_update_curve([pt.count for pt in branch],
                                   [pt.conductance for pt in branch])
            worst = max(worst, abs(fit.nu / nu - 1))
    ok = worst < 1e-3
    check("7 update round trip", ok,
          f"worst shape-parameter error {worst*100:.2e}% over nu in {{0.5, 1.9, 4.3}} (< 0.1%)")


def test_08_half_select_immunity():
    xbar = Crossbar.create(64, 64, PARAMS, VariabilityParams(), 7)
    shadow = xbar.w.copy()
    # Each write jitters its selected cell with one draw from the array's c2c
    # stream; the shadow takes the same draws from a copy of that stream.
    shadow_c2c = deepcopy(xbar._c2c_rng)
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        r, c = int(rng.integers(64)), int(rng.integers(64))
        amp = PARAMS.v_set_full if rng.random() < 0.5 else PARAMS.v_reset_full
        write_cell(xbar, r, c, amp)
        eps = truncated_normal(shadow_c2c, xbar.vp.sigma_c2c, 1)[0]
        shadow[r, c] = pulse_response(float(shadow[r, c]), amp, PARAMS, eps)
    ok = np.array_equal(xbar.w, shadow)
    check("8 half-select immunity", ok,
          "10000 random writes on 64x64: unselected cells bit-identical" if ok
          else "unselected cell states changed")


def test_09_variability_statistics():
    vp = VariabilityParams()
    rng = np.random.default_rng(12345)
    eps = truncated_normal(rng, vp.sigma_c2c, size=10_000)
    c2c = float(np.std(eps))
    g_hrs, _ = sample_endpoint_arrays(10_000, PARAMS, vp, rng)
    d2d = float(np.std(np.log(g_hrs)))
    ok = 0.095 <= c2c <= 0.105 and 0.097 <= d2d <= 0.103
    check("9 variability", ok,
          f"step sigma {c2c:.4f} (in [0.095, 0.105]), ln-conductance sigma {d2d:.4f} "
          "(in [0.097, 0.103])")


@pytest.fixture(scope="module")
def toy_problem():
    x, y = make_blobs_dataset()
    spec = MLPSpec((x.shape[1], 24, int(y.max()) + 1))
    weights = train_mlp(x, y, spec, seed=0)
    return x, y, weights


def test_10_inference_acceptance(toy_problem):
    x, y, weights = toy_problem
    (net,) = program_network(weights, PARAMS, QUIET, [1], mode="continuous")
    rel = np.max(np.abs(net.forward(x) - float_forward(weights, x))
                 / np.maximum(np.abs(float_forward(weights, x)), 1e-30))
    degs = []
    for s in range(10):
        (noisy_net,) = program_network(weights, PARAMS, VariabilityParams(),
                                       [derive_seed(12345, 16 + s)], mode="open_loop")
        degs.append(evaluate(noisy_net, x, y, float_forward(weights, x)).degradation_points)
    mean_deg = float(np.mean(degs))
    ok = rel < 1e-9 and mean_deg < 5.0
    check("10 inference", ok,
          f"idealized forward deviation {rel:.2e} (< 1e-9); mean degradation over 10 seeds "
          f"{mean_deg:+.2f} points (< 5)")


def test_11_brute_force_equivalence():
    worst_read, worst_sneak = 0.0, 0.0
    for shape in ((2, 2), (3, 3), (4, 4)):
        xbar = Crossbar.create(*shape, PARAMS, VariabilityParams(), 7)
        rng = np.random.default_rng(31)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        x = 0.3 * rng.uniform(-1, 1, shape[0])
        got = read_vmm(xbar, x, 320.0)
        want = vmm_oracle(xbar, x, 320.0)
        worst_read = max(worst_read, float(np.max(np.abs(got - want) / np.abs(want))))
        r, c = shape[0] // 2, shape[1] // 2
        got_s = sneak_ratio(xbar, r, c, 0.5)
        want_s = sneak_oracle(xbar, r, c, 0.5, 300.0)
        worst_sneak = max(worst_sneak, abs(got_s / want_s - 1))
    ok = worst_read < 1e-12 and worst_sneak < 1e-12
    check("11 brute force", ok,
          f"read deviation {worst_read:.2e}, sneak deviation {worst_sneak:.2e} "
          "vs exhaustive enumeration (< 1e-12)")
