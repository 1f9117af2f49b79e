"""Pluggable timing-value algebras.

Every quantity the engine propagates — arrival, required time, slack —
used to be a bare ``float``. This module abstracts it behind a small
:class:`TimingAlgebra` protocol (``add / sub / max / min / le /
to_scalar`` plus the delay-lifting hooks :meth:`TimingAlgebra.arc_delay`
and :meth:`TimingAlgebra.wire_delay`) so alternate value domains plug
into the *same* propagation, required-time, PBA and CPPR code:

- :class:`ScalarAlgebra` — the drop-in default. Every operation is the
  native float operation with identical expression grouping, so the
  refactored engine is bit-compatible with the pre-algebra code (the
  1e-9 oracle suites pass unchanged, reference and vector engines).
- :class:`CanonicalAlgebra` — first-order canonical forms
  ``a0 + sum_i(a_i * dX_i) + a_r * dR_a`` (Visweswariah-style) built
  from the LVF/POCV sigma tables (:mod:`repro.liberty.lvf`), with
  Clark's moment-matched statistical max/min. This is the SSTA engine
  (:mod:`repro.sta.ssta`). Given a wire source
  (:class:`repro.parasitics.statistical.StatisticalAnnotator`), it also
  carries statistical interconnect: BEOL wire-delay sigmas.
- :class:`MonteCarloAlgebra` — values are numpy sample *vectors*
  (:class:`Samples`): one pass through the reference propagation
  evaluates every Monte-Carlo sample at once, the same batching trick
  the vectorized kernel uses across corners. The MC validation harness
  that gates SSTA is therefore itself just another algebra instance.

Design notes for the engine refactor:

- Unset sentinels stay the floats ``+/-inf`` in every algebra, so
  ``Arrival`` defaults and ``math.isinf`` guards need no special cases.
- Non-scalar values (:class:`CanonicalForm`, :class:`Samples`) are
  *operator-complete*: ``+ - *`` combine means/coefficients/samples and
  comparisons order by mean. Plain arithmetic in the engine therefore
  works on any algebra's values; code goes through the algebra object
  exactly where the semantics genuinely differ — statistical max/min
  merging, delay lifting, and scalarization.
- Slews stay plain floats (mean slews) in every algebra: NLDM lookups
  are evaluated at the mean, which is the standard first-order POCV
  simplification and keeps canonical and MC propagation consistent.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TimingError

INF = math.inf

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _Phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def scalar_of(value) -> float:
    """The deterministic center (mean) of any algebra value."""
    return float(value)


def sigma_of(value) -> float:
    """The standard deviation of an algebra value (0 for plain floats)."""
    sigma = getattr(value, "sigma", None)
    if callable(sigma):
        return float(sigma())
    return 0.0


# ---------------------------------------------------------------------- #
# variation model


@dataclass(frozen=True)
class VariationModel:
    """How per-arc LVF sigma decomposes into shared and private variation.

    Each arc's total sigma splits into a correlated part ``rho * sigma``
    riding on one of ``n_sources`` global sources (chip-wide process
    knobs; an arc's source is chosen by a stable hash of its cell
    footprint, so all instances of a cell type shift together) and a
    private part ``sqrt(1 - rho^2) * sigma`` riding on one of
    ``n_private`` hashed per-arc slots. Statistical wire delay, when an
    algebra has a wire source, is wholly private: one hashed slot per
    (net, sink).

    Both decomposition terms are *explicit* coordinates of the canonical
    form's sensitivity vector (length ``n_sources + n_private``), so
    correlation through shared path prefixes — the reconvergence that
    RSS-aggregated "independent" terms lose — is tracked exactly, and
    Clark's max is the only approximation separating the canonical
    algebra from the Monte-Carlo algebra. Slot collisions between
    unrelated arcs introduce a tiny spurious correlation; ``n_private``
    bounds it. The Monte-Carlo algebra draws the identical
    decomposition sample-wise, which is what makes the 5%
    canonical-vs-MC agreement gate meaningful.
    """

    n_sources: int = 4
    n_private: int = 512
    rho: float = 0.45
    seed: int = 20260808

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise TimingError(f"rho must be in [0, 1], got {self.rho}")
        if self.n_sources < 1 or self.n_private < 1:
            raise TimingError(
                "n_sources and n_private must be >= 1, got "
                f"{self.n_sources} and {self.n_private}"
            )

    @property
    def dim(self) -> int:
        """Total sensitivity dimensions (global + private slots)."""
        return self.n_sources + self.n_private

    def source_of(self, cell_name: str) -> int:
        return zlib.crc32(cell_name.encode()) % self.n_sources

    def slot_of(self, *key: str) -> int:
        """Private-variation slot of an arc or wire (offset past the
        globals), hashed from its identity: ``(instance, related pin,
        pin, out_dir)`` for an arc, ``(net, sink)`` for a wire.

        Shared across early/late modes: one die draws one process point
        per arc, it is only the sensitivity (sigma) that differs by
        mode.
        """
        return self.n_sources + \
            zlib.crc32("|".join(key).encode()) % self.n_private


# ---------------------------------------------------------------------- #
# the protocol


class TimingAlgebra:
    """Protocol for timing-value domains.

    ``add``/``sub``/``scale`` are provided generically (values are
    operator-complete); subclasses supply the merge/order/lift
    semantics.
    """

    name = "abstract"
    statistical = False

    def lift(self, x: float):
        """A deterministic constant as an algebra value."""
        return x

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def scale(self, a, k: float):
        return a * k

    def max(self, a, b):
        raise NotImplementedError

    def min(self, a, b):
        raise NotImplementedError

    def le(self, a, b) -> bool:
        """Deterministic ordering by center value."""
        return scalar_of(a) <= scalar_of(b)

    def to_scalar(self, v) -> float:
        return scalar_of(v)

    def arc_delay(self, edge, out_dir: str, in_slew: float, load: float,
                  mode: str, value: float):
        """Lift a looked-up NLDM delay into an algebra value.

        ``value`` is the deterministic table delay; statistical algebras
        attach the arc's LVF sigma here. The default is the identity.
        """
        return value

    def wire_delay(self, edge, value: float):
        """Lift a net edge's nominal wire delay into an algebra value.

        Called once per net edge by the forward propagation pass;
        statistical algebras with a wire source attach the net's BEOL
        wire-delay sigma here. The default is the identity.
        """
        return value


class ScalarAlgebra(TimingAlgebra):
    """Plain floats — bit-compatible with the pre-algebra engine."""

    name = "scalar"

    def max(self, a, b):
        return a if a >= b else b

    def min(self, a, b):
        return a if a <= b else b

    def le(self, a, b) -> bool:
        return a <= b

    def to_scalar(self, v) -> float:
        return v


#: The module-level default; engine entry points use this when no
#: algebra is passed, making the refactor invisible to scalar callers.
SCALAR = ScalarAlgebra()


# ---------------------------------------------------------------------- #
# canonical first-order forms


class CanonicalForm:
    """``a0 + sum_i(a_i * dX_i) + indep * dR`` over the model's sources.

    ``coeffs`` are sensitivities to the model's explicit dimensions
    (global sources plus hashed per-arc private slots); ``indep`` is the
    residual variance Clark's moment-matched max generates beyond its
    linear blend. All dX/dR are independent standard normals. Operators
    combine means and sensitivities; comparisons order by mean so
    canonical values flow through code written for floats (sorting,
    ``> -inf`` guards, f-string formatting).
    """

    __slots__ = ("mean", "coeffs", "indep")

    def __init__(self, mean: float, coeffs: np.ndarray, indep: float = 0.0):
        self.mean = float(mean)
        self.coeffs = coeffs
        self.indep = float(indep)

    # -- moments ------------------------------------------------------- #

    def variance(self) -> float:
        return float(self.coeffs @ self.coeffs) + self.indep * self.indep

    def sigma(self) -> float:
        return math.sqrt(self.variance())

    def covariance(self, other: "CanonicalForm") -> float:
        return float(self.coeffs @ other.coeffs)

    def sample(self, z_global: np.ndarray, z_private: np.ndarray) -> np.ndarray:
        """Evaluate on draws: ``z_global`` is (N, dim), ``z_private``
        (N,) for the Clark-residual term."""
        return self.mean + z_global @ self.coeffs + self.indep * z_private

    # -- arithmetic ---------------------------------------------------- #

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return CanonicalForm(self.mean + other, self.coeffs, self.indep)
        if isinstance(other, CanonicalForm):
            return CanonicalForm(
                self.mean + other.mean,
                self.coeffs + other.coeffs,
                math.hypot(self.indep, other.indep),
            )
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return CanonicalForm(self.mean - other, self.coeffs, self.indep)
        if isinstance(other, CanonicalForm):
            return CanonicalForm(
                self.mean - other.mean,
                self.coeffs - other.coeffs,
                math.hypot(self.indep, other.indep),
            )
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return CanonicalForm(other - self.mean, -self.coeffs, self.indep)
        return NotImplemented

    def __mul__(self, k):
        if isinstance(k, (int, float)):
            return CanonicalForm(self.mean * k, self.coeffs * k,
                                 abs(self.indep * k))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return CanonicalForm(-self.mean, -self.coeffs, self.indep)

    # -- ordering by mean ---------------------------------------------- #

    def __float__(self) -> float:
        return self.mean

    def __format__(self, spec: str) -> str:
        return format(self.mean, spec)

    def __lt__(self, other):
        return self.mean < float(other)

    def __le__(self, other):
        return self.mean <= float(other)

    def __gt__(self, other):
        return self.mean > float(other)

    def __ge__(self, other):
        return self.mean >= float(other)

    def __eq__(self, other):
        if isinstance(other, (CanonicalForm, int, float)):
            return self.mean == float(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.mean)

    def __repr__(self):
        return f"CanonicalForm(mean={self.mean:.4f}, sigma={self.sigma():.4f})"


class CanonicalAlgebra(TimingAlgebra):
    """First-order canonical SSTA with Clark's moment-matched max."""

    name = "canonical"
    statistical = True

    def __init__(self, design, model: Optional[VariationModel] = None,
                 wires=None):
        self.design = design
        self.model = model or VariationModel()
        #: Statistical wire source (``net_sigmas(net).wire_delay_rel``),
        #: or None for nominal wires.
        self.wires = wires
        self._zeros = np.zeros(self.model.dim)

    # -- lifting ------------------------------------------------------- #

    def lift(self, x: float) -> CanonicalForm:
        return CanonicalForm(x, self._zeros)

    def _form(self, v) -> CanonicalForm:
        if isinstance(v, CanonicalForm):
            return v
        return CanonicalForm(float(v), self._zeros)

    def arc_delay(self, edge, out_dir: str, in_slew: float, load: float,
                  mode: str, value: float):
        sigma = edge.arc.sigma(out_dir, in_slew, load, mode)
        if not sigma:
            return value
        model = self.model
        cell_name = self.design.instance(edge.instance).cell_name
        coeffs = np.zeros(model.dim)
        coeffs[model.source_of(cell_name)] = model.rho * sigma
        slot = model.slot_of(edge.instance, edge.arc.related_pin,
                             edge.arc.pin, out_dir)
        coeffs[slot] += math.sqrt(max(1.0 - model.rho ** 2, 0.0)) * sigma
        return CanonicalForm(value, coeffs)

    def wire_delay(self, edge, value: float):
        sigma = _wire_sigma(self.wires, edge, value)
        if not sigma:
            return value
        coeffs = np.zeros(self.model.dim)
        coeffs[self.model.slot_of(edge.net_name, str(edge.sink))] = sigma
        return CanonicalForm(value, coeffs)

    # -- merge --------------------------------------------------------- #

    def max(self, a, b):
        # Infinite means are the engine's unset sentinels: pass through.
        fa, fb = float(a), float(b)
        if math.isinf(fa):
            return b if fa < 0 else a
        if math.isinf(fb):
            return a if fb < 0 else b
        A, B = self._form(a), self._form(b)
        va, vb = A.variance(), B.variance()
        if va == 0.0 and vb == 0.0:
            return A if A.mean >= B.mean else B
        theta_sq = va + vb - 2.0 * A.covariance(B)
        theta = math.sqrt(max(theta_sq, 0.0))
        if theta < 1e-12:
            # Perfectly correlated: the larger mean dominates everywhere.
            return A if A.mean >= B.mean else B
        alpha = (A.mean - B.mean) / theta
        p = _Phi(alpha)
        q = 1.0 - p
        t = _phi(alpha)
        mean = A.mean * p + B.mean * q + theta * t
        # Moment-matched sensitivities (Clark / Visweswariah): linear
        # terms blend by tightness probability.
        coeffs = A.coeffs * p + B.coeffs * q
        second = ((va + A.mean * A.mean) * p
                  + (vb + B.mean * B.mean) * q
                  + (A.mean + B.mean) * theta * t)
        var = max(second - mean * mean, 0.0)
        lin_var = float(coeffs @ coeffs)
        indep = math.sqrt(max(var - lin_var, 0.0))
        return CanonicalForm(mean, coeffs, indep)

    def min(self, a, b):
        fa, fb = float(a), float(b)
        if math.isinf(fa):
            return b if fa > 0 else a
        if math.isinf(fb):
            return a if fb > 0 else b
        return -self.max(-self._form(a), -self._form(b))


def _wire_sigma(wires, edge, value: float) -> float:
    """Absolute wire-delay sigma of a net edge: the nominal delay times
    its layer's relative sigma (0 without a wire source)."""
    if wires is None:
        return 0.0
    return value * wires.net_sigmas(edge.net_name).wire_delay_rel


# ---------------------------------------------------------------------- #
# Monte-Carlo sample vectors


class Samples:
    """A vector of per-sample values for one timing quantity.

    Arithmetic is elementwise; ordering (for engine control flow and
    report sorting) is by sample mean.
    """

    __slots__ = ("vec",)

    def __init__(self, vec: np.ndarray):
        self.vec = vec

    def mean(self) -> float:
        return float(self.vec.mean())

    def sigma(self) -> float:
        return float(self.vec.std())

    def _data(self, other):
        if isinstance(other, Samples):
            return other.vec
        if isinstance(other, (int, float)):
            return other
        return None

    def __add__(self, other):
        data = self._data(other)
        if data is None:
            return NotImplemented
        return Samples(self.vec + data)

    __radd__ = __add__

    def __sub__(self, other):
        data = self._data(other)
        if data is None:
            return NotImplemented
        return Samples(self.vec - data)

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Samples(other - self.vec)
        return NotImplemented

    def __mul__(self, k):
        if isinstance(k, (int, float)):
            return Samples(self.vec * k)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Samples(-self.vec)

    def __float__(self) -> float:
        return self.mean()

    def __format__(self, spec: str) -> str:
        return format(self.mean(), spec)

    def __lt__(self, other):
        return self.mean() < float(other)

    def __le__(self, other):
        return self.mean() <= float(other)

    def __gt__(self, other):
        return self.mean() > float(other)

    def __ge__(self, other):
        return self.mean() >= float(other)

    def __eq__(self, other):
        if isinstance(other, (Samples, int, float)):
            return self.mean() == float(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.mean())

    def __repr__(self):
        return f"Samples(n={len(self.vec)}, mean={self.mean():.4f})"


class MonteCarloAlgebra(TimingAlgebra):
    """Every value is a vector of MC samples; one propagation pass
    evaluates all of them (the corner-batching trick, applied to dies).

    Draws are deterministic: global sources come from the model seed,
    each arc's private draw from a CRC of its identity, so two runs —
    or the canonical sampler and this algebra — see the same dies.
    """

    name = "monte-carlo"
    statistical = True

    def __init__(self, design, model: Optional[VariationModel] = None,
                 n_samples: int = 2000, wires=None):
        self.design = design
        self.model = model or VariationModel()
        self.n_samples = n_samples
        self.wires = wires
        rng = np.random.default_rng(self.model.seed)
        #: (N, dim) draws of every model dimension (globals + slots).
        self.z = rng.standard_normal((n_samples, self.model.dim))

    def arc_delay(self, edge, out_dir: str, in_slew: float, load: float,
                  mode: str, value: float):
        sigma = edge.arc.sigma(out_dir, in_slew, load, mode)
        if not sigma:
            return value
        model = self.model
        cell_name = self.design.instance(edge.instance).cell_name
        source = model.source_of(cell_name)
        slot = model.slot_of(edge.instance, edge.arc.related_pin,
                             edge.arc.pin, out_dir)
        rho = model.rho
        z = (rho * self.z[:, source]
             + math.sqrt(max(1.0 - rho * rho, 0.0)) * self.z[:, slot])
        return Samples(value + sigma * z)

    def wire_delay(self, edge, value: float):
        sigma = _wire_sigma(self.wires, edge, value)
        if not sigma:
            return value
        slot = self.model.slot_of(edge.net_name, str(edge.sink))
        return Samples(value + sigma * self.z[:, slot])

    def max(self, a, b):
        fa, fb = float(a), float(b)
        if math.isinf(fa):
            return b if fa < 0 else a
        if math.isinf(fb):
            return a if fb < 0 else b
        if not isinstance(a, Samples) and not isinstance(b, Samples):
            return a if a >= b else b
        av = a.vec if isinstance(a, Samples) else a
        bv = b.vec if isinstance(b, Samples) else b
        return Samples(np.maximum(av, bv))

    def min(self, a, b):
        fa, fb = float(a), float(b)
        if math.isinf(fa):
            return b if fa > 0 else a
        if math.isinf(fb):
            return a if fb > 0 else b
        if not isinstance(a, Samples) and not isinstance(b, Samples):
            return a if a <= b else b
        av = a.vec if isinstance(a, Samples) else a
        bv = b.vec if isinstance(b, Samples) else b
        return Samples(np.minimum(av, bv))

    def samples_of(self, value) -> np.ndarray:
        """A value's sample vector (constants broadcast)."""
        if isinstance(value, Samples):
            return value.vec
        return np.full(self.n_samples, float(value))
