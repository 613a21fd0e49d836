"""Analog memory laws of one junction: pulse programming, DC hysteresis, read and energy.

A device is its ``DeviceParams``; its state is the normalized variable w, from
0 (high-resistive) to 1 (low-resistive), held by the caller as a float or an
array.  Pulse programming advances a discrete level counter on a
saturating-exponential staircase; the ramp protocols are represented by that
counter, not by pulse-level switching kinetics.  ``pulse_response`` is the one
array kernel of that law, a pure one: each caller draws its cycle-to-cycle
jitter from its own stream and passes it in.  ``dc_response`` is the one kernel
of the DC write law; traces and loops are read in one conduction call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .conduction import ConductionParams, current
from .errors import FitError
from .table import write_table

PULSE_READ_VOLTAGE = 0.2  # V, read bias after programming pulses
DC_READ_VOLTAGE = 0.3     # V, read bias along the DC write loop
TRUNCATION_SIGMAS = 3.0   # cycle-to-cycle jitter is resampled beyond this
MAX_LEVELS = 1024         # largest staircase level count, n_levels
NU_BOUNDS = (1e-9, 1e9)   # search range of a fitted staircase shape nu
SIGMA0_MIN = 1e-9         # least staircase amplitude a fit returns
_FIT_GRID = 65            # ln(nu) points per round of the fit's grid search
_FIT_ROUNDS = 10          # grid rounds; after the first each is 64 times narrower
_FIT_ULPS = 8             # floating-point neighbours searched around the fitted values


class UpdateScheme(Enum):
    """Programming scheme of a device's write pulses."""

    AMPLITUDE_RAMP = "amplitude_ramp"  # constant width, stepped amplitude
    WIDTH_RAMP = "width_ramp"          # constant amplitude, stepped width


class Direction(Enum):
    POTENTIATE = "potentiate"
    DEPRESS = "depress"


@dataclass(frozen=True)
class DeviceParams:
    """Full calibration record of one junction.

    ``nu_p``/``nu_d`` are the staircase shape parameters of the
    amplitude-ramp scheme; the width-ramp scheme swaps them (its sharp
    direction is the opposite one).  ``scheme`` is the one place the update
    scheme is set; every pulse reads it through ``nu_for``.  Endpoint
    conductances derive from the conduction record scaled linearly by ``area``.
    """

    conduction: ConductionParams = ConductionParams()
    area: float = 14400.0          # um^2
    n_levels: int = 50             # pulses from one endpoint to the other
    nu_p: float = 1.9              # potentiation shape (amplitude-ramp)
    nu_d: float = 4.3              # depression shape (amplitude-ramp)
    v_set_full: float = -1.6       # V, DC write reaching full LRS
    v_reset_full: float = 2.4      # V, DC write reaching full HRS
    v_c_set: float = -0.6          # V, SET coercive voltage
    v_c_reset: float = 0.8         # V, RESET coercive voltage
    v_pulse_threshold: float = 1.3  # V, minimum |amplitude| that moves state
    t_width_ref: float = 50e-6     # s, reference pulse width
    hzo_thickness_nm: float = 10.0  # reporting only (coercive field)
    scheme: UpdateScheme = UpdateScheme.AMPLITUDE_RAMP

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, UpdateScheme):
            raise ValueError(f"scheme must be an UpdateScheme, got {self.scheme!r}")
        if not (self.v_set_full <= self.v_c_set < 0 < self.v_c_reset <= self.v_reset_full):
            raise ValueError(
                "require v_set_full <= v_c_set < 0 < v_c_reset <= v_reset_full, got "
                f"{self.v_set_full}, {self.v_c_set}, {self.v_c_reset}, {self.v_reset_full}"
            )
        if not (2 <= self.n_levels <= MAX_LEVELS):
            raise ValueError(f"n_levels must lie in [2, {MAX_LEVELS}], got {self.n_levels}")
        for name in ("nu_p", "nu_d", "area", "t_width_ref", "hzo_thickness_nm"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        # A g_hrs below 1 / (the largest float) passes > 0 but has no finite resistance.
        if not (0 < self.g_hrs and self.g_lrs < np.inf and 1.0 / self.g_hrs < np.inf):
            raise ValueError(f"endpoint conductances must be finite with finite resistances, "
                             f"got g_hrs {self.g_hrs} and g_lrs {self.g_lrs}")
        # A pulse-class threshold below a coercive voltage or below half of a
        # full write amplitude would break the half-select no-op contract.
        if not (self.v_pulse_threshold > max(abs(self.v_c_set), self.v_c_reset)):
            raise ValueError(
                f"v_pulse_threshold {self.v_pulse_threshold} must exceed both coercive "
                f"voltage magnitudes ({abs(self.v_c_set)}, {self.v_c_reset})"
            )
        if not (self.v_pulse_threshold > max(abs(self.v_set_full), self.v_reset_full) / 2):
            raise ValueError(
                f"v_pulse_threshold {self.v_pulse_threshold} must exceed half of every "
                f"write amplitude ({abs(self.v_set_full) / 2}, {self.v_reset_full / 2})"
            )
        # A full write below the threshold could never move the state.
        if not (min(abs(self.v_set_full), self.v_reset_full) >= self.v_pulse_threshold):
            raise ValueError(
                f"full write amplitudes ({self.v_set_full}, {self.v_reset_full}) must reach "
                f"the pulse threshold {self.v_pulse_threshold}"
            )
        # A subnormal thickness passes > 0 but underflows to 0 cm or overflows the
        # field, and an infinite one gives no field; the checks above keep
        # v_set_full finite and nonzero, so only the thickness can be at fault.
        if not (self.hzo_thickness_nm * 1e-7 > 0 and 0 < self.coercive_field < np.inf):
            raise ValueError(f"hzo_thickness_nm {self.hzo_thickness_nm} gives no finite "
                             f"coercive field")

    @property
    def memory_window(self) -> float:
        """Separation of the two coercive voltages, in volts."""
        return self.v_c_reset - self.v_c_set

    @property
    def coercive_field(self) -> float:
        """Field across the HZO layer at the full SET amplitude, in V/cm."""
        return abs(self.v_set_full) / (self.hzo_thickness_nm * 1e-7)

    @property
    def g_lrs(self) -> float:
        return self.conduction.g_lrs_ref * self.area / self.conduction.area_ref

    @property
    def g_hrs(self) -> float:
        return self.g_lrs / self.conduction.on_off

    def nu_for(self, direction: Direction) -> float:
        """Staircase shape of one direction under this device's update scheme."""
        if self.scheme is UpdateScheme.WIDTH_RAMP:
            return self.nu_d if direction is Direction.POTENTIATE else self.nu_p
        return self.nu_p if direction is Direction.POTENTIATE else self.nu_d


def update_curve(x, nu: float, direction: Direction):
    """Normalized conductance after a normalized pulse count x in [0, 1].

    Potentiation rises as (1 - exp(-nu*x)) / (1 - exp(-nu)); depression is its
    mirror starting from 1.  Endpoints are exact by construction.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr < 0) | (x_arr > 1)):
        raise ValueError("normalized count must lie in [0, 1]")
    if nu <= 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    rise = np.expm1(-nu * x_arr) / np.expm1(-nu) + 0.0  # + 0.0 normalizes -0.0
    out = rise if direction is Direction.POTENTIATE else 1.0 - rise
    return float(out) if x_arr.ndim == 0 else out


def update_curve_inverse(g_norm, nu: float, direction: Direction):
    """Normalized count at which update_curve reaches g_norm."""
    g_arr = np.asarray(g_norm, dtype=float)
    rise = g_arr if direction is Direction.POTENTIATE else 1.0 - g_arr
    # Past nu of about 37, expm1(-nu) rounds to -1, so the far endpoint gives
    # log1p(-1) = -inf; the clamp maps -inf / -nu to its exact count 1.
    with np.errstate(divide="ignore"):
        x = np.log1p(rise * np.expm1(-nu)) / (-nu)
    out = np.minimum(np.maximum(0.0, x), 1.0)
    return float(out) if g_arr.ndim == 0 else out


@lru_cache(maxsize=None)
def level_table(nu: float, direction: Direction, n_levels: int) -> np.ndarray:
    """update_curve(k / n_levels) for k = 0 .. n_levels, bit for bit, read-only."""
    table = update_curve(np.arange(n_levels + 1) / n_levels, nu, direction)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _scalar_law(nu: float, direction: Direction, n_levels: int) -> tuple[list, float]:
    """``level_table`` as Python floats, and expm1(-nu): what one float step reads."""
    return level_table(nu, direction, n_levels).tolist(), float(np.expm1(-nu))


def step_weight(w, nu: float, direction: Direction, n_levels: int):
    """Advance every state in the array w by one discrete staircase level in the given direction.

    The level counter is recovered from w (nearest level, so a noisy state
    neither stalls nor double-steps on average), incremented, and looked up
    in ``level_table``; it saturates at the endpoint.
    """
    x = update_curve_inverse(w, nu, direction)
    k = np.minimum(np.rint(np.multiply(x, n_levels)) + 1, n_levels).astype(np.intp)
    return level_table(nu, direction, n_levels)[k]


def truncated_normal(rng: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    """size Normal(0, sigma) samples truncated (by resampling) to +-3 sigma."""
    if sigma == 0:
        return np.zeros(size)
    out = rng.normal(0.0, sigma, size)
    bound = TRUNCATION_SIGMAS * sigma
    bad = (np.abs(out) > bound).nonzero()[0]
    while bad.size:  # only a resampled element can be out of bounds again
        out[bad] = rng.normal(0.0, sigma, bad.size)
        bad = bad[np.abs(out[bad]) > bound]
    return out


def pulse_response(w, amplitude: float, params: DeviceParams, eps=None):
    """State after one write pulse of the given signed amplitude, for scalars and arrays.

    Below the voltage threshold ``w`` itself is returned, so the no-op is
    exact.  Otherwise negative amplitudes potentiate and positive ones
    depress by one staircase level.  ``eps`` is the relative cycle-to-cycle
    jitter, one per element of w: the increment is scaled by 1 + eps and the
    result clamped to [0, 1].  None is the noiseless step.  A non-finite
    amplitude is refused: it has no direction.
    """
    if not math.isfinite(amplitude):
        raise ValueError(f"pulse amplitude must be finite, got {amplitude}")
    if abs(amplitude) < params.v_pulse_threshold:
        return w
    direction = Direction.POTENTIATE if amplitude < 0 else Direction.DEPRESS
    nu, n = params.nu_for(direction), params.n_levels
    if isinstance(w, np.ndarray) and w.ndim:
        stepped = step_weight(w, nu, direction, n)
        if eps is None:
            return stepped
        return np.minimum(np.maximum(0.0, w + (stepped - w) * (1.0 + eps)), 1.0)
    # One state: step_weight's operations in Python floats, bit for bit, without
    # the cost of 0-d arrays.  Past nu of about 37 expm1(-nu) is -1, and the far
    # endpoint's log1p(-1) = -inf clamps to the count 1; it is taken directly.
    w = float(w)
    levels, em = _scalar_law(nu, direction, n)
    a = (w if direction is Direction.POTENTIATE else 1.0 - w) * em
    x = 1.0 if a == -1.0 else float(np.log1p(a)) / -nu
    x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
    stepped = levels[min(int(np.rint(x * n)) + 1, n)]
    if eps is None:
        return stepped
    out = w + (stepped - w) * (1.0 + eps)
    # np.minimum(np.maximum(0.0, out), 1.0) as comparisons: -0.0 and nan pass unchanged.
    return 0.0 if out < 0.0 else 1.0 if out > 1.0 else float(out)


class TracePoint(NamedTuple):
    count: int
    direction: str
    conductance: float  # S, 1 / resistance at the pulse read voltage
    resistance: float   # ohm


TRACE_CSV_HEADER = ("count", "direction", "conductance_S", "resistance_ohm")
TRACE_DIRECTIONS = ("potentiation", "depression")


def run_sequence(
    n_pot: int,
    n_dep: int,
    params: DeviceParams,
    sigma_c2c: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[TracePoint]:
    """Potentiation then depression staircase from the HRS, read at +0.2 V after each pulse.

    Both branches include their count-0 (pre-pulse) read.  Every pulse goes
    through pulse_response, in order, with its own jitter when ``sigma_c2c``
    is not 0: the values and the generator state are those of one
    ``truncated_normal(rng, sigma_c2c, 1)`` per pulse.  The whole trace is then
    read at once.
    """
    if not (0 <= n_pot <= params.n_levels and 0 <= n_dep <= params.n_levels):
        raise ValueError(f"pulse counts must lie in [0, {params.n_levels}]")
    if sigma_c2c and rng is None:
        raise ValueError("cycle-to-cycle noise needs a random generator")
    # Pulse i's jitter is the i-th in-bounds normal of the stream, as from one
    # truncated_normal(rng, sigma_c2c, 1) call per pulse: each draw asks for the
    # count still missing, so the stream ends where the last accepted value lies.
    eps: list = [None] * (n_pot + n_dep) if not sigma_c2c else []
    while len(eps) < n_pot + n_dep:
        draw = rng.normal(0.0, sigma_c2c, n_pot + n_dep - len(eps))
        eps += draw[np.abs(draw) <= TRUNCATION_SIGMAS * sigma_c2c].tolist()
    labels, ws, w = [], [], 0.0
    for direction, amplitude, branch in (("potentiation", params.v_set_full, eps[:n_pot]),
                                         ("depression", params.v_reset_full, eps[n_pot:])):
        labels += [(i, direction) for i in range(len(branch) + 1)]
        ws.append(w)
        for e in branch:
            w = pulse_response(w, amplitude, params, e)
            ws.append(w)
    r = _read_trace(np.array(ws), PULSE_READ_VOLTAGE, params).tolist()
    return [TracePoint(i, d, 1.0 / ri, ri) for (i, d), ri in zip(labels, r)]


def write_trace_csv(path: str | Path, points: Sequence[TracePoint]) -> None:
    write_table(path, TRACE_CSV_HEADER, ([c, d, f"{g:.12e}", f"{r:.12e}"] for c, d, g, r in points))


def trace_from_table(header: tuple, rows: list) -> list[TracePoint]:
    """The trace in a table ``read_table`` returned."""
    if header != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    points = [TracePoint(int(r[0]), r[1], float(r[2]), float(r[3])) for r in rows]
    if any(p.direction not in TRACE_DIRECTIONS for p in points):
        raise ValueError(f"every direction must be one of {TRACE_DIRECTIONS}")
    if not np.isfinite([p[2:] for p in points]).all():
        raise ValueError("conductances and resistances must be finite")
    return points


@dataclass(frozen=True)
class UpdateCurveFit:
    """Result of fitting a staircase to amplitude * (1 - exp(-nu * x))."""

    sigma0: float
    nu: float
    direction: Direction
    rms_residual: float
    warnings: tuple = ()


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _saturation(x: np.ndarray, nu) -> np.ndarray:
    """f = 1 - exp(-nu x), one row per nu: the staircase family is sigma0 * f."""
    return -np.expm1(-np.multiply.outer(nu, x))


def _amplitude(f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares sigma0 of each row of f against y, f.y / f.f, held at its bound."""
    return np.maximum(f @ y / _rowdot(f, f), SIGMA0_MIN)


def _slopes(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A positive multiple of -dphi/d(ln nu) at each ln nu in t, phi the least sum of squares.

    The nu column of the Jacobian is made orthogonal to f first, so the rounding
    of the residual along f does not reach the sign near the optimum.
    """
    f = _saturation(x, np.exp(t))
    j = x * (1.0 - f)
    j -= (_rowdot(j, f) / _rowdot(f, f))[:, None] * f
    return _rowdot(j, y - _amplitude(f, y)[:, None] * f)


def fit_update_curve(counts: Sequence[float], conductances: Sequence[float]) -> UpdateCurveFit:
    """Least-squares fit of one staircase branch to the saturating exponential.

    Counts are normalized by their maximum and conductances by the branch
    extremes.  The fit is a variable projection: at a given nu the best sigma0
    is f.y / f.f with f = 1 - exp(-nu x), so only ln nu is searched, on a
    coarse-to-fine grid inside ``NU_BOUNDS``: the residual picks the basin, the
    sign of its analytic derivative brackets the optimum to the last bits, and
    the floating-point neighbours of (sigma0, nu) with the least computed
    residual are returned.  A non-monotone branch, a nu on its search bound and
    a branch already saturated at its first positive count are reported as
    warnings, not errors.
    """
    counts = np.asarray(counts, dtype=float)
    g = np.asarray(conductances, dtype=float)
    if counts.size != g.size or counts.size < 5:
        raise FitError(f"need >= 5 (count, conductance) points, got {counts.size}")
    if np.ptp(counts) == 0 or np.ptp(g) == 0:
        raise FitError("degenerate trace: counts or conductances are all equal")
    if counts.min() < 0:
        raise FitError(f"pulse counts must be >= 0, got {counts.min():g}")

    warnings: list[str] = []
    order = np.argsort(counts)
    counts, g = counts[order], g[order]
    x = counts / counts.max()
    g_norm = (g - g.min()) / (g.max() - g.min())
    rising = g[-1] >= g[0]
    direction = Direction.POTENTIATE if rising else Direction.DEPRESS
    y = g_norm if rising else 1.0 - g_norm
    if np.any(np.diff(y) < -1e-12):
        warnings.append("non-monotone trace; fit quality may be degraded")

    # The first round keeps the neighbours of the least residual on the whole range,
    # each later one the grid step where the residual stops falling.
    bounds = np.log(NU_BOUNDS)
    t = np.linspace(*bounds, _FIT_GRID)
    f = _saturation(x, np.exp(t))
    r = y - _amplitude(f, y)[:, None] * f
    k = int(np.argmin(_rowdot(r, r)))
    lo, hi = t[max(k - 1, 0)], t[min(k + 1, _FIT_GRID - 1)]
    for _ in range(_FIT_ROUNDS - 1):
        t = np.linspace(lo, hi, _FIT_GRID)
        rises = _slopes(x, y, t) <= 0
        i = int(np.argmax(rises)) if rises.any() else _FIT_GRID
        lo, hi = (lo, lo) if i == 0 else (hi, hi) if i == _FIT_GRID else (t[i - 1], t[i])
    if lo in bounds:
        warnings.append(f"nu at its search bound {np.exp(lo):g}; "
                        "the saturating exponential cannot follow this branch")

    # The rounding of f and of sigma0 * f sets the residual of an exact staircase:
    # search a few floating-point neighbours of (nu, sigma0) for the least one.
    nu = float(np.clip(np.exp(lo), *NU_BOUNDS))
    ulps = np.arange(-_FIT_ULPS, _FIT_ULPS + 1)
    nus = np.clip(nu + ulps * np.spacing(nu), *NU_BOUNDS)
    f = _saturation(x, nus)
    sigma0 = _amplitude(f, y)[:, None]
    sigma0 = np.maximum(sigma0 + ulps * np.spacing(sigma0), SIGMA0_MIN)
    sq = np.mean((sigma0[:, :, None] * f[:, None, :] - y) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmin(sq), sq.shape)
    if -np.expm1(-nus[i] * x[x > 0][0]) == 1.0:  # past here every larger nu fits as well
        warnings.append(f"branch saturated by its first pulse count; nu {nus[i]:g} fits "
                        "and so does any larger nu")
    return UpdateCurveFit(sigma0=float(sigma0[i, j]), nu=float(nus[i]), direction=direction,
                          rms_residual=float(np.sqrt(sq[i, j])), warnings=tuple(warnings))


def dc_response(w, v_write, params: DeviceParams):
    """State after a one-sided saturating DC write at v_write, for scalars and arrays.

    At or below the SET coercive voltage w rises to at least the SET level, at
    or above the RESET one it falls to at most 1 - drop, and in between it is kept.
    """
    v = np.asarray(v_write, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"v_write must be finite, got {v_write}")
    set_level = np.minimum(1.0, (params.v_c_set - v) / (params.v_c_set - params.v_set_full))
    drop = np.minimum(1.0, (v - params.v_c_reset) / (params.v_reset_full - params.v_c_reset))
    out = np.where(v <= params.v_c_set, np.maximum(w, set_level),
                   np.where(v >= params.v_c_reset, np.minimum(w, 1.0 - drop), w))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HysteresisLoop:
    """Resistance read at +0.3 V along an up-then-down DC write sweep."""

    v_up: np.ndarray
    r_up: np.ndarray
    v_down: np.ndarray
    r_down: np.ndarray


def hysteresis_loop(params: DeviceParams, v_min: float, v_max: float, n_steps: int) -> HysteresisLoop:
    """Sweep the DC write voltage up then down, reading after every step.

    The sweep must start below the SET coercive voltage so the up branch
    leaves from a defined state; a v_max below the RESET coercive voltage
    yields a flat (non-switching) loop.
    """
    if not (v_min < params.v_c_set):
        raise ValueError(f"sweep must start below the SET coercive voltage {params.v_c_set}")
    if not (v_max > v_min):
        raise ValueError("v_max must exceed v_min")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    grid = np.linspace(v_min, v_max, n_steps)
    grid_down = grid[::-1].copy()
    # A write clamps w to [dc_response(0, v), dc_response(1, v)].  Going up, every SET floor
    # comes before every RESET ceiling, going down after it, so running extrema give w.
    rise, fall = np.maximum.accumulate, np.minimum.accumulate
    w_up = np.minimum(rise(dc_response(0.0, grid, params)), fall(dc_response(1.0, grid, params)))
    w_down = np.maximum(fall(np.minimum(w_up[-1], dc_response(1.0, grid_down, params))),
                        rise(dc_response(0.0, grid_down, params)))
    r = _read_trace(np.append(w_up, w_down), DC_READ_VOLTAGE, params)
    return HysteresisLoop(v_up=grid, r_up=r[:n_steps], v_down=grid_down, r_down=r[n_steps:])


def extract_memory_window(loop: HysteresisLoop, rel_tol: float = 1e-6) -> tuple[float, float, float]:
    """Onset voltages of both transitions and their separation.

    The RESET onset is the largest up-sweep voltage still reading at the
    low-resistance plateau; the SET onset is the smallest down-sweep voltage
    still reading at the high-resistance plateau.
    """
    r_lrs = loop.r_up.min()
    on_plateau_up = np.nonzero(loop.r_up <= r_lrs * (1 + rel_tol))[0]
    v_reset_onset = float(loop.v_up[on_plateau_up.max()])
    r_hrs = loop.r_down.max()
    on_plateau_down = np.nonzero(loop.r_down >= r_hrs * (1 - rel_tol))[0]
    v_set_onset = float(loop.v_down[on_plateau_down.max()])
    return v_set_onset, v_reset_onset, v_reset_onset - v_set_onset


def _read_trace(w: np.ndarray, v_read: float, params: DeviceParams) -> np.ndarray:
    """Resistance v/I at t_ref of the nominal device at each state in w, in one conduction call."""
    g = params.g_hrs + w * (params.g_lrs - params.g_hrs)
    return v_read / current(v_read, g, params.conduction.t_ref, params.conduction)


def write_energy(g: float, amplitude: float, width: float) -> float:
    """Energy G * V^2 * t of one pulse at the small-signal conductance g.

    The field-enhanced branch is not extrapolated to write voltages; the
    small-signal conductance keeps the estimate within the model's validity.
    """
    return g * amplitude**2 * width
