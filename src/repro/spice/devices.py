"""MOSFET device model: smoothed alpha-power law with temperature effects.

The model follows Sakurai-Newton's alpha-power law, smoothed through the
threshold with a softplus overdrive so a single C1-continuous expression
covers subthreshold and strong inversion (good Newton behaviour):

    v_ov   = n*phi_t * ln(1 + exp((vgs - vt) / (n*phi_t)))
    vdsat  = kv * v_ov^(alpha/2)
    idsat  = k * W * v_ov^alpha * (1 + lambda * vds)
    id     = idsat * u * (2 - u)          for u = vds/vdsat < 1   (triode)
    id     = idsat                        for vds >= vdsat        (saturation)

Temperature enters twice, which is what produces the paper's Fig 6(b)
*temperature inversion*: threshold voltage drops with temperature
(``vt(T) = vt0 - vt_tc * (T - 25C)``, making hot devices faster at low
supply) while mobility degrades with temperature
(``k(T) = k0 * (T_ref/T_K)^mu_exp``, making hot devices slower at high
supply). The supply voltage where the two effects cancel is the
temperature-reversal point V_tr.

Per-device variation and aging enter through ``vt_shift`` (added to the
threshold) and ``k_scale`` (multiplies the current factor); Monte Carlo and
BTI-aging studies perturb only these two fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from repro.units import celsius_to_kelvin

# Thermal voltage at 300 K, in volts.
PHI_T_300K = 0.02585
T_REF_KELVIN = 298.15
T_REF_CELSIUS = 25.0


@dataclass(frozen=True)
class MosParams:
    """Process parameters for one transistor flavor.

    Attributes:
        polarity: +1 for NMOS, -1 for PMOS.
        vt0: threshold voltage magnitude at 25 C, in volts.
        k: current factor per unit width, in mA / V^alpha.
        alpha: velocity-saturation exponent (2.0 = long channel, ~1.2-1.4
            for deeply scaled devices).
        kv: saturation-voltage coefficient, vdsat = kv * v_ov^(alpha/2).
        lam: channel-length modulation, 1/V.
        vt_tc: threshold temperature coefficient, V per degree C (the
            threshold *decreases* by ``vt_tc`` per degree above 25 C).
        mu_exp: mobility temperature exponent; k scales as (T_ref/T)^mu_exp.
        subthreshold_n: subthreshold slope factor n (smoothing width of the
            softplus overdrive is n * phi_t).
        cg_per_width: gate capacitance per unit width, fF.
        cd_per_width: drain/source junction capacitance per unit width, fF.
    """

    polarity: int
    vt0: float
    k: float
    alpha: float = 1.3
    kv: float = 0.9
    lam: float = 0.05
    vt_tc: float = 0.0008
    mu_exp: float = 1.5
    subthreshold_n: float = 1.45
    cg_per_width: float = 1.0
    cd_per_width: float = 0.5

    def vt_at(self, temp_c: float, vt_shift: float = 0.0) -> float:
        """Threshold-voltage magnitude at ``temp_c``, including shift."""
        return self.vt0 + vt_shift - self.vt_tc * (temp_c - T_REF_CELSIUS)

    def k_at(self, temp_c: float, k_scale: float = 1.0) -> float:
        """Current factor at ``temp_c``, including variation scale."""
        t_k = celsius_to_kelvin(temp_c)
        return self.k * k_scale * (T_REF_KELVIN / t_k) ** self.mu_exp

    def phi_t_at(self, temp_c: float) -> float:
        """Thermal voltage kT/q at ``temp_c``, in volts."""
        return PHI_T_300K * celsius_to_kelvin(temp_c) / 300.0


# Default 16/14nm-class flavors, calibrated so a unit-width inverter at
# VDD = 0.8 V has an FO4 delay of a handful of picoseconds. PMOS current
# factor is lower (hole mobility); cell builders compensate with width.
NMOS_16NM = MosParams(polarity=+1, vt0=0.35, k=0.85)
PMOS_16NM = MosParams(polarity=-1, vt0=0.35, k=0.42)


def vt_flavor_params(base: MosParams, flavor: str) -> MosParams:
    """Return device parameters for a threshold flavor of ``base``.

    Flavors model the multi-Vt menu used by Vt-swap optimization: LVT is
    faster but leaky, HVT slower but low-leakage. ULVT/UHVT extend the menu
    for aggressive libraries.
    """
    offsets = {
        "ulvt": -0.10,
        "lvt": -0.06,
        "svt": 0.0,
        "hvt": +0.07,
        "uhvt": +0.13,
    }
    try:
        offset = offsets[flavor.lower()]
    except KeyError:
        raise ValueError(
            f"unknown Vt flavor {flavor!r}; expected one of {sorted(offsets)}"
        ) from None
    return replace(base, vt0=base.vt0 + offset)


@dataclass
class Transistor:
    """A transistor instance inside a :class:`repro.spice.network.Circuit`.

    Attributes:
        drain, gate, source: node names.
        params: process parameters (flavor).
        width: drive-strength multiplier (unit widths).
        vt_shift: per-instance threshold shift in volts (variation, aging).
        k_scale: per-instance current-factor multiplier (variation).
        name: optional instance name for debugging.
    """

    drain: str
    gate: str
    source: str
    params: MosParams
    width: float = 1.0
    vt_shift: float = 0.0
    k_scale: float = 1.0
    name: str = ""

    def current(
        self, v_d: float, v_g: float, v_s: float, temp_c: float = T_REF_CELSIUS
    ) -> float:
        """Drain current (mA) flowing drain->source, for scalar voltages.

        Convenience scalar entry point; the transient solver uses the
        vectorized device evaluation in :mod:`repro.spice.transient`.
        """
        i, _, _, _ = self.current_and_derivs(v_d, v_g, v_s, temp_c)
        return i

    def current_and_derivs(
        self, v_d: float, v_g: float, v_s: float, temp_c: float = T_REF_CELSIUS
    ) -> Tuple[float, float, float, float]:
        """Return (i_ds, di/dv_d, di/dv_g, di/dv_s) at the given voltages.

        ``i_ds`` is the current flowing from the drain terminal to the
        source terminal through the channel (positive when a turned-on NMOS
        discharges its drain).
        """
        pol = self.params.polarity
        a = pol * v_d
        b = pol * v_s
        swapped = a < b
        if swapped:
            a, b = b, a
        vgs = pol * v_g - b
        vds = a - b

        i, gm, gds = _alpha_power_current(
            vgs,
            vds,
            vt=self.params.vt_at(temp_c, self.vt_shift),
            k=self.params.k_at(temp_c, self.k_scale) * self.width,
            alpha=self.params.alpha,
            kv=self.params.kv,
            lam=self.params.lam,
            n_phi_t=self.params.subthreshold_n * self.params.phi_t_at(temp_c),
        )
        # Derivatives w.r.t. normalized node voltages (d', g', s').
        di_dd = gds
        di_dg = gm
        di_ds = -(gm + gds)
        if swapped:
            # The physical drain plays the source role: relabel the
            # terminal derivatives and negate everything along with i.
            di_dd, di_ds = -di_ds, -di_dd
            di_dg = -di_dg
            i = -i
        # Physical current from drain to source = pol * normalized current;
        # derivative chain rule multiplies by another pol, cancelling.
        return pol * i, di_dd, di_dg, di_ds

    def gate_capacitance(self) -> float:
        """Gate input capacitance in fF."""
        return self.params.cg_per_width * self.width

    def junction_capacitance(self) -> float:
        """Drain (or source) junction capacitance in fF."""
        return self.params.cd_per_width * self.width


def _softplus(x: float) -> float:
    """Numerically safe ln(1 + e^x)."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x > 35.0:
        return 1.0
    if x < -35.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def _alpha_power_current(
    vgs: float,
    vds: float,
    vt: float,
    k: float,
    alpha: float,
    kv: float,
    lam: float,
    n_phi_t: float,
) -> Tuple[float, float, float]:
    """Smoothed alpha-power current and derivatives, normalized NMOS frame.

    Returns (i, gm, gds) with vds >= 0 assumed (the caller swaps
    terminals), i in mA, gm = di/dvgs, gds = di/dvds.
    """
    x = (vgs - vt) / n_phi_t
    v_ov = n_phi_t * _softplus(x)
    dvov_dvgs = _sigmoid(x)

    pow_a = v_ov**alpha
    clm = 1.0 + lam * vds
    idsat = k * pow_a * clm
    didsat_dvgs = k * alpha * v_ov ** (alpha - 1.0) * clm * dvov_dvgs
    didsat_dvds = k * pow_a * lam

    vdsat = kv * v_ov ** (alpha / 2.0)
    if vds >= vdsat:
        return idsat, didsat_dvgs, didsat_dvds

    u = vds / vdsat
    shape = u * (2.0 - u)
    dshape_du = 2.0 - 2.0 * u
    dvdsat_dvgs = kv * (alpha / 2.0) * v_ov ** (alpha / 2.0 - 1.0) * dvov_dvgs
    du_dvgs = -vds * dvdsat_dvgs / (vdsat * vdsat)
    du_dvds = 1.0 / vdsat

    i = idsat * shape
    gm = didsat_dvgs * shape + idsat * dshape_du * du_dvgs
    gds = didsat_dvds * shape + idsat * dshape_du * du_dvds
    return i, gm, gds
