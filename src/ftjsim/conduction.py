"""Conduction model of a single junction, its inverse and slope, and parameter fitters.

I = g a(T) v h(|v|, T): Ohmic up to ``v_pf_min`` and Poole-Frenkel type above it, in
one clipped field factor h that is exactly 1 up to the onset.  Temperature enters
through one Arrhenius factor a(T) referenced to ``t_ref``, so the LRS/HRS current
ratio is temperature independent; every temperature must keep both factors finite and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FitError

K_B_EV = 8.617333262e-5  # Boltzmann constant, eV/K

# Upper edge of the read-sweep window; field-enhanced fits use data up to here.
V_READ_SWEEP_MAX = 0.3


@dataclass(frozen=True)
class ConductionParams:
    """Calibration constants of the junction conduction model.

    ``g_lrs_ref`` is the small-signal low-resistive-state conductance of a
    device of area ``area_ref`` at ``t_ref``; the high-resistive state is
    ``g_lrs_ref / on_off``.  Conductance scales linearly with device area.
    """

    g_lrs_ref: float = 1e-8      # S, LRS conductance at area_ref and t_ref
    on_off: float = 7.0          # LRS/HRS conductance ratio
    area_ref: float = 14400.0    # um^2
    e_a: float = 0.15            # eV, Ohmic activation energy
    beta: float = 0.4            # eV * V^-1/2, field-lowering coefficient
    v_ohmic_max: float = 0.1     # V, upper edge of the Ohmic regime
    v_pf_min: float = 0.2        # V, onset of the field-enhanced regime
    v_clamp: float = 1.0         # V, exponent frozen above this voltage
    t_ref: float = 300.0         # K

    def __post_init__(self) -> None:
        if not (self.g_lrs_ref > 0):
            raise ValueError(f"g_lrs_ref must be > 0, got {self.g_lrs_ref}")
        if not (self.on_off > 1):
            raise ValueError(f"on_off must be > 1, got {self.on_off}")
        if not (self.area_ref > 0):
            raise ValueError(f"area_ref must be > 0, got {self.area_ref}")
        if not (0 < self.v_ohmic_max <= self.v_pf_min < self.v_clamp):
            raise ValueError(
                "regime edges must satisfy 0 < v_ohmic_max <= v_pf_min < v_clamp, "
                f"got {self.v_ohmic_max}, {self.v_pf_min}, {self.v_clamp}"
            )
        if not (self.e_a >= 0):
            raise ValueError(f"e_a must be >= 0, got {self.e_a}")
        if not (self.beta >= 0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        _kt(self.t_ref, self)  # t_ref is checked like any temperature


@dataclass(frozen=True)
class SweepRecord:
    """Measured or synthetic (voltage, current density, temperature) samples."""

    voltage: np.ndarray          # V
    current_density: np.ndarray  # A / um^2
    temperature: np.ndarray      # K

    CSV_HEADER = ("voltage_V", "current_density_A_per_um2", "temperature_K")

    def __post_init__(self) -> None:
        v = np.asarray(self.voltage, dtype=float)
        j = np.asarray(self.current_density, dtype=float)
        t = np.asarray(self.temperature, dtype=float)
        if not (v.shape == j.shape == t.shape) or v.ndim != 1:
            raise ValueError("voltage, current_density, temperature must be equal-length 1-D arrays")
        if not (np.isfinite(v).all() and np.isfinite(j).all() and np.isfinite(t).all()):
            raise ValueError("voltages, current densities and temperatures must be finite")
        if np.any(t <= 0):
            raise ValueError("temperatures must be > 0")
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "current_density", j)
        object.__setattr__(self, "temperature", t)

    def __len__(self) -> int:
        return self.voltage.size

    def restrict(self, v_min: float, v_max: float) -> "SweepRecord":
        """Keep samples with v_min <= |V| <= v_max."""
        mask = (np.abs(self.voltage) >= v_min) & (np.abs(self.voltage) <= v_max)
        return SweepRecord(self.voltage[mask], self.current_density[mask], self.temperature[mask])

    @classmethod
    def from_table(cls, header: tuple, rows: list) -> "SweepRecord":
        """The sweep in a table ``read_table`` returned."""
        if header != cls.CSV_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}, want {cls.CSV_HEADER!r}")
        if not rows:
            raise ValueError("no samples")
        return cls(*np.array(rows, dtype=float).T)


def _finite(name: str, x) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x}")


_LN_MAX = math.log(np.finfo(float).max)  # exp(x) is finite and > 0 for |x| < _LN_MAX


def _kt(t: float, p: ConductionParams) -> float:
    """Thermal energy kT in eV; the one check of a temperature: finite and > 0, and keeping
    the Arrhenius factor and the field factor at v_clamp finite and > 0 (1 K keeps neither)."""
    kt = K_B_EV * t if 0 < t < math.inf else 0.0
    if not (kt > 0 and abs(p.e_a * (1.0 / kt - 1.0 / (K_B_EV * p.t_ref))) < _LN_MAX
            and p.beta * (math.sqrt(p.v_clamp) - math.sqrt(p.v_pf_min)) / kt < _LN_MAX):
        raise ValueError(f"temperature must be finite and > 0 with finite, non-zero "
                         f"conduction factors, got {t}")
    return kt


def _h(v_abs, kt: float, p: ConductionParams):
    """exp(beta (sqrt(v) - sqrt(v_pf_min)) / kT) with v clipped to [v_pf_min, v_clamp].
    Exactly 1 up to the onset, because np.sqrt and math.sqrt are both correctly rounded."""
    u = np.sqrt(np.minimum(np.maximum(v_abs, p.v_pf_min), p.v_clamp))
    return np.exp(p.beta * (u - math.sqrt(p.v_pf_min)) / kt)


def shape_factor(v, t: float, p: ConductionParams):
    """Field-enhancement multiplier h(v, t) of the conduction model, for scalar or array v >= 0.

    Equals 1 up to ``v_pf_min``, rises as exp(beta*(sqrt(v)-sqrt(v_pf_min))/kT)
    beyond it, and freezes at its ``v_clamp`` value above that; continuous, non-decreasing.
    """
    v_arr = np.asarray(v, dtype=float)
    _finite("v", v_arr)
    if (v_arr < 0).any():
        raise ValueError("shape_factor requires v >= 0")
    h = _h(v_arr, _kt(t, p), p)
    return float(h) if v_arr.ndim == 0 else h


def activation_factor(t: float, p: ConductionParams) -> float:
    """Arrhenius factor exp(-e_a * (1/kT - 1/kT_ref)); exactly 1 at t_ref."""
    return math.exp(-p.e_a * (1.0 / _kt(t, p) - 1.0 / (K_B_EV * p.t_ref)))


def _base_conductance(g_state, t: float, p: ConductionParams) -> tuple[np.ndarray, float]:
    """(g_state * a(t), kT), with every state conductance checked finite and > 0."""
    g_arr = np.asarray(g_state, dtype=float)
    if not ((0 < g_arr) & (g_arr < math.inf)).all():
        raise ValueError(f"g_state must be finite and > 0, got {g_state}")
    return g_arr * activation_factor(t, p), K_B_EV * t


def current(v, g_state, t: float, p: ConductionParams):
    """Junction current in amperes at bias v for state conductance g_state.

    I = g_state * activation(t) * v * h(|v|, t).  Odd in v; at t_ref and
    |v| <= v_pf_min this reduces exactly to g_state * v.  Broadcasts over
    array-valued v and g_state.
    """
    v_arr = np.asarray(v, dtype=float)
    _finite("v", v_arr)
    base, kt = _base_conductance(g_state, t, p)
    i = base * v_arr * _h(np.abs(v_arr), kt, p)
    return float(i) if np.ndim(i) == 0 else i


# Cap on the window iteration; bisection alone reaches float64 resolution in
# 53 + log2(sqrt(v_clamp / v_pf_min)) halvings, well below it.
_WINDOW_MAX_ITERS = 100


def voltage_at_current(i, g_state, t: float, p: ConductionParams):
    """Bias at which the junction carries current i: the inverse of ``current``.

    Odd in i; broadcasts over i and g_state.  Closed form in the Ohmic and
    frozen-exponent regimes.  In the window it solves the increasing, concave
    f(u) = 2 ln u + c (u - sqrt(v_pf_min)) - ln(|i| / (g_state a)) = 0 for
    u = sqrt(V), c = beta/kT, by bracketed Newton from the root of the chord
    of f, which overshoots once at most, until a step is within 4 ulp of u.
    """
    i_arr = np.asarray(i, dtype=float)
    _finite("i", i_arr)
    base, kt = _base_conductance(g_state, t, p)
    i_abs, base = np.broadcast_arrays(np.abs(i_arr), base)
    c, u0, u_hi = p.beta / kt, math.sqrt(p.v_pf_min), math.sqrt(p.v_clamp)
    h_clamp = math.exp(c * (u_hi - u0))
    frozen = i_abs >= base * (p.v_clamp * h_clamp)
    v = np.where(frozen, i_abs / (base * h_clamp), i_abs / base)
    window = ~frozen & (i_abs > base * p.v_pf_min)
    ln_target = np.log(i_abs[window] / base[window])
    chord = (2.0 * math.log(u_hi / u0) + c * (u_hi - u0)) / (u_hi - u0)
    u = u0 + (ln_target - 2.0 * math.log(u0)) / chord
    lo, hi, idx = np.full_like(u, u0), np.full_like(u, u_hi), np.arange(u.size)
    for _ in range(_WINDOW_MAX_ITERS):
        if not idx.size:
            break
        uu, lo_a, hi_a = u[idx], lo[idx], hi[idx]
        f = 2.0 * np.log(uu) + c * (uu - u0) - ln_target[idx]
        np.copyto(hi_a, uu, where=f > 0)
        np.copyto(lo_a, uu, where=f <= 0)
        nxt = uu - f / (2.0 / uu + c)
        u[idx] = np.where((lo_a <= nxt) & (nxt <= hi_a), nxt, 0.5 * (lo_a + hi_a))
        lo[idx], hi[idx] = lo_a, hi_a
        idx = idx[np.abs(u[idx] - uu) > 4 * np.finfo(float).eps * uu]
    if idx.size:
        raise ConvergenceError(f"junction inverse: {idx.size} entries unconverged "
                               f"after {_WINDOW_MAX_ITERS} iterations")
    v[window] = u * u
    v = np.copysign(v, i_arr)
    return float(v) if v.ndim == 0 else v


def differential_conductance(v, g_state, t: float, p: ConductionParams):
    """Slope dI/dV of ``current`` at bias v, in siemens; even in v and > 0.

    g_state a(t) h(|v|), times 1 + c sqrt(|v|) / 2 (c = beta/kT) strictly
    between v_pf_min and v_clamp; at either edge the outer regime's value.
    """
    v_abs = np.abs(np.asarray(v, dtype=float))
    _finite("v", v_abs)
    base, kt = _base_conductance(g_state, t, p)
    window = (v_abs > p.v_pf_min) & (v_abs < p.v_clamp)
    gain = np.where(window, 1.0 + 0.5 * p.beta / kt * np.sqrt(v_abs), 1.0)
    s = base * _h(v_abs, kt, p) * gain
    return float(s) if np.ndim(s) == 0 else s


def nonlinearity_ratio(v: float, t: float, p: ConductionParams) -> float:
    """Current ratio I(v)/I(v/2) at fixed state; the state conductance cancels."""
    if not v / 2 > 0:  # a subnormal v halves to 0
        raise ValueError(f"nonlinearity_ratio requires v / 2 > 0, got v = {v}")
    return current(v, 1.0, t, p) / current(v / 2, 1.0, t, p)


# ---------------------------------------------------------------------------
# Inverse fitters


@dataclass(frozen=True)
class OhmicFit:
    """Result of the low-field Arrhenius extraction."""

    e_a: float                 # eV
    ln_prefactor: float        # ln of J/V extrapolated to 1/kT = 0
    max_flatness_residual: float  # max |ln(J/V) - mean| within one temperature
    r_squared: float           # of the Arrhenius regression
    per_temperature: tuple     # (T, mean ln(J/V), n_samples) rows
    warnings: tuple = ()


@dataclass(frozen=True)
class PooleFrenkelFit:
    """Result of the field-enhanced two-stage extraction."""

    phi_b: float               # eV, barrier from the intercept Arrhenius
    beta: float                # eV * V^-1/2, slope-derived, averaged over T
    ln_prefactor: float
    r_squared: float           # of the intercept-vs-1/kT regression
    per_temperature: tuple     # (T, slope, intercept, r2, beta_at_T) rows
    warnings: tuple = ()
    notes: tuple = ()


_ANCHOR_NOTE = (
    "barrier is read from the zero-field intercept; for data generated by the "
    "anchored forward model it equals e_a + beta*sqrt(v_pf_min), not e_a alone"
)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS slope, intercept and R^2 of y on x."""
    with np.errstate(over="ignore", invalid="ignore"):  # an x out of range fails below
        if np.ptp(x) == 0:
            raise FitError("singular regression: all abscissa values identical")
        sum_sq = x @ x
    # polyfit divides x by its norm: a norm that overflows or underflows breaks the solve.
    if not (np.finfo(float).tiny <= sum_sq < np.inf):
        raise FitError(f"regression abscissae out of floating-point range: sum of squares "
                       f"{sum_sq:.3g}")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _log_conductance_samples(data: SweepRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (|V|, ln(J/V), T) with duplicate (V, T) pairs averaged in J."""
    v = np.abs(data.voltage)
    j = np.abs(data.current_density)
    t = data.temperature
    if np.any(v == 0):
        raise FitError("cannot fit ln(J/V) with zero-voltage samples")
    if np.any(j <= 0):
        raise FitError("current densities must be > 0 for log-space fitting")
    # Average duplicates so repeated sweep points carry unit weight.  The unique
    # (T, V) rows in sorted order and each sample's row, as np.unique(axis=0) gives them.
    order = np.lexsort((v, t))
    t_s, v_s = t[order], v[order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    np.not_equal(t_s[1:], t_s[:-1], out=new[1:])
    new[1:] |= v_s[1:] != v_s[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    t_u, v_u = t_s[new], v_s[new]
    j_avg = np.zeros(t_u.size)
    counts = np.bincount(inverse, minlength=t_u.size)
    with np.errstate(over="ignore", divide="ignore"):  # a non-finite ln(J/V) is raised below
        np.add.at(j_avg, inverse, j)
        j_avg /= counts
        y = np.log(j_avg / v_u)
    if not np.isfinite(y).all():
        raise FitError("ln(J/V) must be finite; a sample's J/V overflows or underflows")
    return v_u, y, t_u


def fit_ohmic(data: SweepRecord, residual_threshold: float = 0.05) -> OhmicFit:
    """Recover the activation energy from low-field sweeps.

    Within each temperature ln(J/V) must be constant in V (the max residual is
    reported and compared against ``residual_threshold``); the regression of
    its mean against 1/kT has slope -E_a.
    """
    v, y, t = _log_conductance_samples(data)
    temps = np.unique(t)
    if temps.size < 2:
        raise FitError(f"Arrhenius extraction needs >= 2 temperatures, got {temps.size}")
    warnings: list[str] = []
    means = []
    max_resid = 0.0
    rows = []
    for temp in temps:
        y_t = y[t == temp]
        mean = float(y_t.mean())
        max_resid = max(max_resid, float(np.max(np.abs(y_t - mean))) if y_t.size else 0.0)
        means.append(mean)
        rows.append((float(temp), mean, int(y_t.size)))
    if max_resid > residual_threshold:
        warnings.append(
            f"regime violation: ln(J/V) varies by {max_resid:.3g} within a temperature "
            f"(threshold {residual_threshold:.3g}); data may extend beyond the Ohmic regime"
        )
    with np.errstate(over="ignore", divide="ignore"):  # a non-finite 1/kT fails _linear_fit
        x = 1.0 / (K_B_EV * temps)
    slope, intercept, r2 = _linear_fit(x, np.array(means))
    return OhmicFit(
        e_a=-slope,
        ln_prefactor=intercept,
        max_flatness_residual=max_resid,
        r_squared=r2,
        per_temperature=tuple(rows),
        warnings=tuple(warnings),
    )


def fit_poole_frenkel(data: SweepRecord) -> PooleFrenkelFit:
    """Recover barrier and field-lowering coefficient from high-field sweeps.

    Per temperature, ln(J/V) is regressed on sqrt(V): the slope is beta/kT and
    the intercept b_T carries the barrier.  Regressing b_T on 1/kT yields
    -phi_b as slope and the ln-prefactor as intercept.
    """
    v, y, t = _log_conductance_samples(data)
    temps = np.unique(t)
    if temps.size < 2:
        raise FitError(f"barrier extraction needs >= 2 temperatures, got {temps.size}")
    rows = []
    betas = []
    intercepts = []
    warnings: list[str] = []
    for temp in temps:
        sel = t == temp
        if np.unique(v[sel]).size < 3:
            raise FitError(
                f"need >= 3 distinct voltages per temperature, got {np.unique(v[sel]).size} at {temp} K"
            )
        slope, intercept, r2 = _linear_fit(np.sqrt(v[sel]), y[sel])
        kt = K_B_EV * temp
        rows.append((float(temp), slope, intercept, r2, slope * kt))
        betas.append(slope * kt)
        intercepts.append(intercept)
        if r2 < 0.9:
            warnings.append(f"poor sqrt(V) linearity at {temp} K (R^2 = {r2:.3f})")
    with np.errstate(over="ignore", divide="ignore"):  # a non-finite 1/kT fails _linear_fit
        x = 1.0 / (K_B_EV * temps)
    slope_b, ln_c, r2_b = _linear_fit(x, np.array(intercepts))
    return PooleFrenkelFit(
        phi_b=-slope_b,
        beta=float(np.mean(betas)),
        ln_prefactor=ln_c,
        r_squared=r2_b,
        per_temperature=tuple(rows),
        warnings=tuple(warnings),
        notes=(_ANCHOR_NOTE,),
    )
