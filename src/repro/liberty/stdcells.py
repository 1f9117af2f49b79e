"""Analytic standard-cell library factory.

``make_library`` generates a complete multi-Vt, multi-size library at any
PVT condition in milliseconds, with NLDM delay/slew tables, setup/hold
constraint tables, LVF sigma tables, leakage and area. The delay equations
derive from the *same* alpha-power device parameters as the transistor-
level simulator (:mod:`repro.spice.devices`) — an effective switching
resistance per unit width is computed from the device on-current at the
library's voltage and temperature — so voltage scaling, process corners and
temperature inversion carry through to STA without re-running transistor
simulations. The linear-model constants (``_A``, ``_B``, ``_S``, ``_T``)
were calibrated once against :mod:`repro.spice` testbenches; the agreement
is verified by tests in ``tests/liberty/test_stdcells_vs_spice.py``.

The per-cell variation ground truth lives here too: relative delay sigma
follows first-order sensitivity of the alpha-power delay to threshold
variation, ``sigma_rel = alpha * sigma_vt / v_overdrive``, Pelgrom-scaled
by device width, with a late/early asymmetry (the setup long tail of the
paper's Fig 7). The LVF tables tabulate exactly this; POCV and AOCV models
(:mod:`repro.liberty.aocv`) are coarser projections of it, which is what
lets the Section 3.1 accuracy-ladder experiment measure their pessimism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import LibraryError
from repro.liberty.arcs import ArcTiming, TimingArc, TimingSense, TimingType
from repro.liberty.cell import Cell, Pin, PinDirection
from repro.liberty.library import Library
from repro.liberty.tables import LookupTable2D
from repro.spice.devices import MosParams, NMOS_16NM, PMOS_16NM, vt_flavor_params

# Calibrated against repro.spice testbenches (see module docstring).
_A = 1.40  # delay per R*C
_B = 0.25  # delay per input slew
_S = 1.20  # output slew per R*C
_T = 0.15  # output slew per input slew
_BETA = 1.8  # PMOS/NMOS width ratio (mirrors repro.spice.gates)
_CG = 1.0  # gate cap per unit width, fF (mirrors MosParams defaults)
_CD = 0.5  # junction cap per unit width, fF

#: Stack calibration: series stacks are a bit faster than the naive
#: R*stack/width estimate (the internal node is pre-discharged).
_STACK_CAL = {1: 1.0, 2: 0.81, 3: 0.74}

_LEAK_I0 = 5e-3  # subthreshold leakage prefactor, mA per unit width

SLEW_GRID = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
LOAD_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

@dataclass(frozen=True)
class CornerShifts:
    """Per-polarity global corner shifts: (vt offset V, k multiplier)."""

    nmos_vt: float = 0.0
    nmos_k: float = 1.0
    pmos_vt: float = 0.0
    pmos_k: float = 1.0

    @classmethod
    def symmetric(cls, vt: float, k: float) -> "CornerShifts":
        return cls(nmos_vt=vt, nmos_k=k, pmos_vt=vt, pmos_k=k)


#: Global (die-to-die) process-corner shifts applied to every device.
#: SSG/FFG are the "global only" corners of the paper's footnote 2 —
#: tighter than SS/FF because on-die mismatch is left to AOCV/POCV/LVF
#: instead of being lumped in. FSG/SFG are the *cross-corners* (fast
#: NMOS / slow PMOS and vice versa) that the paper notes are
#: "increasingly required... e.g., for signoff of clock distribution":
#: they skew rise-vs-fall delays and hence clock duty cycle.
PROCESS_CORNERS: Dict[str, CornerShifts] = {
    "tt": CornerShifts.symmetric(0.0, 1.0),
    "ss": CornerShifts.symmetric(+0.030, 0.92),
    "ff": CornerShifts.symmetric(-0.030, 1.08),
    "ssg": CornerShifts.symmetric(+0.020, 0.95),
    "ffg": CornerShifts.symmetric(-0.020, 1.05),
    "fsg": CornerShifts(nmos_vt=-0.020, nmos_k=1.05,
                        pmos_vt=+0.020, pmos_k=0.95),
    "sfg": CornerShifts(nmos_vt=+0.020, nmos_k=0.95,
                        pmos_vt=-0.020, pmos_k=1.05),
}

#: Local mismatch sigma used as the variation ground truth (volts, for a
#: unit-width device; Pelgrom scaling divides by sqrt(width)).
SIGMA_VT_LOCAL = 0.020
#: Late/early asymmetry of the delay distribution (Fig 7's setup long
#: tail): the +3sigma side is fatter than the -3sigma side.
LATE_SKEW = 1.30
EARLY_SKEW = 0.80


@dataclass(frozen=True)
class LibraryCondition:
    """One PVT(+aging) characterization condition."""

    vdd: float = 0.8
    temp_c: float = 25.0
    process: str = "tt"
    vt_shift_aging: float = 0.0  # BTI-induced threshold shift, volts

    def label(self) -> str:
        mv = int(round(self.vdd * 1000))
        t = f"m{abs(int(self.temp_c))}" if self.temp_c < 0 else f"{int(self.temp_c)}"
        suffix = f"_aged{int(round(self.vt_shift_aging * 1000))}mv" \
            if self.vt_shift_aging else ""
        return f"repro16_{self.process}_{mv}mv_{t}c{suffix}"


@dataclass(frozen=True)
class _Archetype:
    """Topology description of one combinational cell family."""

    footprint: str
    inputs: Tuple[str, ...]
    output: str
    stack_n: int
    stack_p: int
    wn: float  # NMOS width per unit size (already stack-upsized)
    wp: float  # PMOS width per unit size
    base_area: float
    function: str
    sense: TimingSense = TimingSense.NEGATIVE_UNATE


_ARCHETYPES: Dict[str, _Archetype] = {
    "inv": _Archetype("inv", ("A",), "ZN", 1, 1, 1.0, _BETA, 1.0, "!A"),
    "nand2": _Archetype("nand2", ("A", "B"), "ZN", 2, 1, 2.0, _BETA, 1.5,
                        "!(A & B)"),
    "nand3": _Archetype("nand3", ("A", "B", "C"), "ZN", 3, 1, 3.0, _BETA, 2.0,
                        "!(A & B & C)"),
    "nor2": _Archetype("nor2", ("A", "B"), "ZN", 1, 2, 1.0, 2 * _BETA, 1.5,
                       "!(A | B)"),
    "nor3": _Archetype("nor3", ("A", "B", "C"), "ZN", 1, 3, 1.0, 3 * _BETA, 2.0,
                       "!(A | B | C)"),
    "aoi21": _Archetype("aoi21", ("A1", "A2", "B"), "ZN", 2, 2, 2.0, 2 * _BETA,
                        2.0, "!((A1 & A2) | B)"),
    "oai21": _Archetype("oai21", ("A1", "A2", "B"), "ZN", 2, 2, 2.0, 2 * _BETA,
                        2.0, "!((A1 | A2) & B)"),
}

_COMB_SIZES: Dict[str, Tuple[float, ...]] = {
    "inv": (0.5, 1.0, 2.0, 4.0, 8.0),
    "nand2": (1.0, 2.0, 4.0),
    "nand3": (1.0, 2.0, 4.0),
    "nor2": (1.0, 2.0, 4.0),
    "nor3": (1.0, 2.0, 4.0),
    "aoi21": (1.0, 2.0, 4.0),
    "oai21": (1.0, 2.0, 4.0),
}
_BUF_SIZES = (1.0, 2.0, 4.0, 8.0)
_DFF_SIZES = (1.0, 2.0)
DEFAULT_FLAVORS = ("lvt", "svt", "hvt")


# ---------------------------------------------------------------------- #
# physics helpers


def _overdrive(params: MosParams, vdd: float, temp_c: float, vt_shift: float) -> float:
    """Smoothed gate overdrive at vgs = vdd, volts."""
    n_phi_t = params.subthreshold_n * params.phi_t_at(temp_c)
    x = (vdd - params.vt_at(temp_c, vt_shift)) / n_phi_t
    if x > 35.0:
        return n_phi_t * x
    return n_phi_t * math.log1p(math.exp(max(x, -35.0)))


def _unit_resistance(
    params: MosParams, vdd: float, temp_c: float, vt_shift: float, k_scale: float
) -> float:
    """Effective switching resistance of a unit-width device, kohm."""
    ov = _overdrive(params, vdd, temp_c, vt_shift)
    i_on = params.k_at(temp_c, k_scale) * ov**params.alpha
    return vdd / (2.0 * i_on)


def _device_params(
    flavor: str, cond: LibraryCondition
) -> Tuple[MosParams, MosParams, CornerShifts]:
    """(nmos params, pmos params, per-polarity shifts incl aging)."""
    try:
        shifts = PROCESS_CORNERS[cond.process]
    except KeyError:
        raise LibraryError(
            f"unknown process corner {cond.process!r}; "
            f"expected one of {sorted(PROCESS_CORNERS)}"
        ) from None
    nmos = vt_flavor_params(NMOS_16NM, flavor)
    pmos = vt_flavor_params(PMOS_16NM, flavor)
    if cond.vt_shift_aging:
        shifts = CornerShifts(
            nmos_vt=shifts.nmos_vt + cond.vt_shift_aging,
            nmos_k=shifts.nmos_k,
            pmos_vt=shifts.pmos_vt + cond.vt_shift_aging,
            pmos_k=shifts.pmos_k,
        )
    return nmos, pmos, shifts


# ---------------------------------------------------------------------- #
# table builders


def _linear_tables(
    r_drive: float,
    c_self: float,
    sigma_rel: float,
    slew_grid: Sequence[float] = SLEW_GRID,
    load_grid: Sequence[float] = LOAD_GRID,
    intrinsic: float = 0.0,
) -> ArcTiming:
    """NLDM + LVF tables from the calibrated linear delay model."""

    def delay(s: float, l: float) -> float:
        return intrinsic + _A * r_drive * (l + c_self) + _B * s

    def slew(s: float, l: float) -> float:
        return _S * r_drive * (l + c_self) + _T * s

    def varying_part(s: float, l: float) -> float:
        # Only the cell's own drive (R*C and intrinsic) varies with its
        # threshold; the input-slew pass-through term does not. This makes
        # the *relative* sigma load/slew-dependent — the information LVF
        # keeps and POCV (one number per cell) throws away.
        return intrinsic + _A * r_drive * (l + c_self)

    d_tab = LookupTable2D.from_function(slew_grid, load_grid, delay)
    s_tab = LookupTable2D.from_function(slew_grid, load_grid, slew)
    v_tab = LookupTable2D.from_function(slew_grid, load_grid, varying_part)
    return ArcTiming(
        delay=d_tab,
        slew=s_tab,
        sigma_early=v_tab.scaled(sigma_rel * EARLY_SKEW),
        sigma_late=v_tab.scaled(sigma_rel * LATE_SKEW),
    )


def _sigma_rel(
    params: MosParams, vdd: float, temp_c: float, vt_shift: float, width: float
) -> float:
    """First-order relative delay sigma from local Vt mismatch."""
    ov = _overdrive(params, vdd, temp_c, vt_shift)
    sigma_vt = SIGMA_VT_LOCAL / math.sqrt(max(width, 0.25))
    return params.alpha * sigma_vt / ov


# ---------------------------------------------------------------------- #
# cell builders


def _build_combinational(
    arch: _Archetype, size: float, flavor: str, cond: LibraryCondition
) -> Cell:
    nmos, pmos, shifts = _device_params(flavor, cond)
    r_n = (
        _unit_resistance(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                         shifts.nmos_k)
        * arch.stack_n
        * _STACK_CAL[arch.stack_n]
        / (arch.wn * size)
    )
    r_p = (
        _unit_resistance(pmos, cond.vdd, cond.temp_c, shifts.pmos_vt,
                         shifts.pmos_k)
        * arch.stack_p
        * _STACK_CAL[arch.stack_p]
        / (arch.wp * size)
    )
    # Junction caps on the output node: stacked devices contribute one
    # drain; parallel devices contribute one drain per input.
    n_inputs = len(arch.inputs)
    k_n = 1 if arch.stack_n > 1 else n_inputs
    k_p = 1 if arch.stack_p > 1 else n_inputs
    c_self = _CD * size * (arch.wn * k_n + arch.wp * k_p)

    pin_cap = _CG * size * (arch.wn / arch.stack_n * 1.0 + arch.wp / arch.stack_p)
    sig_n = _sigma_rel(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                       arch.wn * size)
    sig_p = _sigma_rel(pmos, cond.vdd, cond.temp_c, shifts.pmos_vt,
                       arch.wp * size)

    cell = Cell(
        name=f"{arch.footprint.upper()}_X{size:g}_{flavor.upper()}",
        footprint=arch.footprint,
        size=size,
        vt_flavor=flavor,
        area=arch.base_area * size,
        leakage=_leakage(cond, nmos, shifts.nmos_vt,
                         (arch.wn + arch.wp) * size),
        function=arch.function,
    )
    for name in arch.inputs:
        cell.pins[name] = Pin(name, PinDirection.INPUT, capacitance=pin_cap)
    cell.pins[arch.output] = Pin(
        arch.output, PinDirection.OUTPUT, max_capacitance=40.0 * size
    )

    for idx, inp in enumerate(arch.inputs):
        # Inner-stack inputs are slightly slower.
        stretch = 1.0 + 0.06 * idx
        arc = TimingArc(
            related_pin=inp,
            pin=arch.output,
            timing_type=TimingType.COMBINATIONAL,
            sense=arch.sense,
            timing={
                "fall": _linear_tables(r_n * stretch, c_self, sig_n),
                "rise": _linear_tables(r_p * stretch, c_self, sig_p),
            },
        )
        cell.arcs.append(arc)
    return cell


def _build_buffer(size: float, flavor: str, cond: LibraryCondition) -> Cell:
    """Two-stage buffer: fixed small first stage, sized second stage."""
    nmos, pmos, shifts = _device_params(flavor, cond)
    r_n1 = _unit_resistance(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                            shifts.nmos_k)
    r_p1 = _unit_resistance(pmos, cond.vdd, cond.temp_c, shifts.pmos_vt,
                            shifts.pmos_k) / _BETA
    stage2_cin = _CG * size * (1.0 + _BETA)
    # First-stage contribution folded into an intrinsic delay.
    intrinsic_r = 0.5 * (r_n1 + r_p1)
    intrinsic = _A * intrinsic_r * (stage2_cin + _CD * (1.0 + _BETA))

    r_n2 = r_n1 / size
    r_p2 = r_p1 * _BETA / (_BETA * size)
    c_self = _CD * size * (1.0 + _BETA)
    sig = _sigma_rel(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                     size) * math.sqrt(2.0)

    cell = Cell(
        name=f"BUF_X{size:g}_{flavor.upper()}",
        footprint="buf",
        size=size,
        vt_flavor=flavor,
        area=1.2 * size,
        leakage=_leakage(cond, nmos, shifts.nmos_vt,
                         (1.0 + _BETA) * (1.0 + size)),
        function="A",
    )
    cell.pins["A"] = Pin("A", PinDirection.INPUT, capacitance=_CG * (1.0 + _BETA))
    cell.pins["Z"] = Pin("Z", PinDirection.OUTPUT, max_capacitance=50.0 * size)
    cell.arcs.append(
        TimingArc(
            related_pin="A",
            pin="Z",
            timing_type=TimingType.COMBINATIONAL,
            sense=TimingSense.POSITIVE_UNATE,
            timing={
                "rise": _linear_tables(r_p2, c_self, sig, intrinsic=intrinsic),
                "fall": _linear_tables(r_n2, c_self, sig, intrinsic=intrinsic),
            },
        )
    )
    return cell


def _build_dff(size: float, flavor: str, cond: LibraryCondition) -> Cell:
    """Positive-edge D flip-flop with setup/hold constraint arcs.

    Base setup/hold/c2q values follow the transistor-level six-NAND flop
    characterization (tests pin the correspondence); everything scales
    with the condition's speed factor so slow corners see larger
    constraints, as real libraries do.
    """
    nmos, pmos, shifts = _device_params(flavor, cond)
    r_unit = _unit_resistance(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                              shifts.nmos_k)
    nominal = _unit_resistance(NMOS_16NM, 0.8, 25.0, 0.0, 1.0)
    speed = r_unit / nominal  # >1 at slow corners

    r_out = r_unit * 2.0 * _STACK_CAL[2] / (2.0 * size)
    c_self = _CD * size * (2.0 + _BETA)
    intrinsic = 38.0 * speed  # internal master-slave resolution delay
    sig = _sigma_rel(nmos, cond.vdd, cond.temp_c, shifts.nmos_vt,
                     2.0 * size) * 2.0

    setup0, hold0 = 28.0 * speed, 6.0 * speed

    def setup_table(bias: float) -> LookupTable2D:
        return LookupTable2D.from_function(
            SLEW_GRID, SLEW_GRID,
            lambda ds, cs: setup0 + bias + 0.30 * ds + 0.10 * cs,
        )

    def hold_table(bias: float) -> LookupTable2D:
        return LookupTable2D.from_function(
            SLEW_GRID, SLEW_GRID,
            lambda ds, cs: hold0 + bias - 0.10 * ds + 0.15 * cs,
        )

    cell = Cell(
        name=f"DFF_X{size:g}_{flavor.upper()}",
        footprint="dff",
        size=size,
        vt_flavor=flavor,
        area=6.0 * size,
        leakage=_leakage(cond, nmos, shifts.nmos_vt, 26.0 * size),
        function="Q <= D @ posedge CK",
        is_sequential=True,
    )
    cell.pins["D"] = Pin("D", PinDirection.INPUT, capacitance=_CG * size * 2.0)
    cell.pins["CK"] = Pin(
        "CK", PinDirection.INPUT, capacitance=_CG * size * 2.5, is_clock=True
    )
    cell.pins["Q"] = Pin("Q", PinDirection.OUTPUT, max_capacitance=35.0 * size)

    cell.arcs.append(
        TimingArc(
            related_pin="CK",
            pin="Q",
            timing_type=TimingType.RISING_EDGE,
            sense=TimingSense.NON_UNATE,
            timing={
                "rise": _linear_tables(r_out, c_self, sig, intrinsic=intrinsic),
                "fall": _linear_tables(r_out, c_self, sig,
                                       intrinsic=intrinsic * 1.05),
            },
        )
    )
    cell.arcs.append(
        TimingArc(
            related_pin="CK",
            pin="D",
            timing_type=TimingType.SETUP_RISING,
            constraint={"rise": setup_table(0.0), "fall": setup_table(2.0)},
        )
    )
    cell.arcs.append(
        TimingArc(
            related_pin="CK",
            pin="D",
            timing_type=TimingType.HOLD_RISING,
            constraint={"rise": hold_table(0.0), "fall": hold_table(1.0)},
        )
    )
    return cell


def _leakage(
    cond: LibraryCondition, nmos: MosParams, vt_shift: float, total_width: float
) -> float:
    """Static leakage power in mW (subthreshold conduction only)."""
    n_phi_t = nmos.subthreshold_n * nmos.phi_t_at(cond.temp_c)
    vt = nmos.vt_at(cond.temp_c, vt_shift)
    i_leak = _LEAK_I0 * total_width * math.exp(-vt / n_phi_t)
    return cond.vdd * i_leak


# ---------------------------------------------------------------------- #
# the factory


def make_library(
    cond: LibraryCondition = LibraryCondition(),
    flavors: Sequence[str] = DEFAULT_FLAVORS,
    name: str = "",
) -> Library:
    """Generate the full standard-cell library at one condition.

    Args:
        cond: PVT(+aging) condition.
        flavors: Vt flavors to include ("ulvt"/"lvt"/"svt"/"hvt"/"uhvt").
        name: optional library name override.

    Returns:
        A :class:`repro.liberty.library.Library` with INV/BUF/NAND/NOR/
        AOI/OAI/DFF families across sizes and flavors.
    """
    lib = Library(
        name=name or cond.label(),
        vdd=cond.vdd,
        temp_c=cond.temp_c,
        process=cond.process,
    )
    for flavor in flavors:
        for arch_name, arch in _ARCHETYPES.items():
            for size in _COMB_SIZES[arch_name]:
                lib.add_cell(_build_combinational(arch, size, flavor, cond))
        for size in _BUF_SIZES:
            lib.add_cell(_build_buffer(size, flavor, cond))
        for size in _DFF_SIZES:
            lib.add_cell(_build_dff(size, flavor, cond))
    return lib
