"""Declarative campaign design spaces: factors x levels -> configs.

A :class:`CampaignSpec` names the experiment (DAVOS-style): a list of
:class:`Factor`\\ s, each a named axis with a finite level menu, plus a
``base`` of fixed parameters shared by every run. :meth:`CampaignSpec.expand`
takes the cartesian product (full factorial) or a deterministic fraction
of it and yields :class:`CampaignConfig`\\ s, each carrying

- the resolved level assignment,
- a **content fingerprint** — a stable hash of the assignment only, so
  the same configuration has the same identity across processes, runs
  and machines (the results DB resumes by it), and
- a **derived seed** — mixed from the spec seed and the fingerprint, so
  every config gets an independent, reproducible RNG stream.

Fractional designs subsample by fingerprint hash order (not list order),
so the kept subset is spread across the lattice and is stable under
factor reordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import CampaignError
from repro.sta.scheduler import _digest

_PLAIN = (str, int, float, bool, type(None))


def _check_plain(name: str, value: Any) -> None:
    if not isinstance(value, _PLAIN):
        raise CampaignError(
            f"factor {name!r} has a non-JSON-plain level "
            f"{value!r} ({type(value).__name__})"
        )


@dataclass(frozen=True)
class Factor:
    """One swept axis: a name and its finite level menu."""

    name: str
    levels: Tuple[Any, ...]

    def __post_init__(self):
        if not self.name:
            raise CampaignError("factor needs a name")
        if not self.levels:
            raise CampaignError(f"factor {self.name!r} has no levels")
        object.__setattr__(self, "levels", tuple(self.levels))
        for level in self.levels:
            _check_plain(self.name, level)
        if len(set(map(repr, self.levels))) != len(self.levels):
            raise CampaignError(f"factor {self.name!r} repeats a level")


@dataclass(frozen=True)
class CampaignConfig:
    """One fully-resolved configuration of a campaign."""

    campaign: str
    index: int  # position in the *full* factorial design
    levels: Tuple[Tuple[str, Any], ...]  # sorted (name, value) pairs
    seed: int
    fingerprint: str

    @property
    def assignment(self) -> Dict[str, Any]:
        return dict(self.levels)

    def level(self, name: str, default: Any = None) -> Any:
        return self.assignment.get(name, default)

    def levels_json(self) -> str:
        return json.dumps(self.assignment, sort_keys=True)


def config_fingerprint(levels: Dict[str, Any]) -> str:
    """Content identity of one assignment — independent of campaign
    name, factor order, index, or seed, so re-specs of the same point
    in the design space reuse each other's results."""
    return _digest("campaign-config", {k: levels[k] for k in sorted(levels)})


def derive_seed(spec_seed: int, fingerprint: str) -> int:
    """Deterministic per-config seed: spec seed mixed with content."""
    return int(_digest("campaign-seed", spec_seed, fingerprint)[:12], 16) \
        % (2 ** 31 - 1)


@dataclass
class CampaignSpec:
    """A named factorial design space (see module docstring).

    Args:
        name: campaign identity; one results DB can hold many.
        factors: the swept axes (unique names, finite level menus).
        base: fixed parameters merged into every assignment; a base key
            shadowed by a factor is an error.
        fraction: keep this fraction of the full factorial design
            (deterministic by fingerprint hash; 1.0 = full).
        seed: root seed; every config derives its own stream from it.
    """

    name: str
    factors: List[Factor]
    base: Dict[str, Any] = field(default_factory=dict)
    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.name:
            raise CampaignError("campaign needs a name")
        if not self.factors:
            raise CampaignError("campaign needs at least one factor")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise CampaignError("factor names must be unique")
        for key, value in self.base.items():
            _check_plain(key, value)
            if key in names:
                raise CampaignError(
                    f"base parameter {key!r} is shadowed by a factor"
                )
        if not 0.0 < self.fraction <= 1.0:
            raise CampaignError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )

    @property
    def size(self) -> int:
        """Full factorial size (before any fractional subsampling)."""
        n = 1
        for factor in self.factors:
            n *= len(factor.levels)
        return n

    def expand(self) -> List[CampaignConfig]:
        """The design, as deterministic ready-to-run configs."""
        configs: List[CampaignConfig] = []
        menus = [factor.levels for factor in self.factors]
        names = [factor.name for factor in self.factors]
        for index, combo in enumerate(itertools.product(*menus)):
            levels = dict(self.base)
            levels.update(zip(names, combo))
            fp = config_fingerprint(levels)
            configs.append(CampaignConfig(
                campaign=self.name,
                index=index,
                levels=tuple(sorted(levels.items())),
                seed=derive_seed(self.seed, fp),
                fingerprint=fp,
            ))
        if self.fraction < 1.0:
            keep = max(1, round(self.fraction * len(configs)))
            configs.sort(key=lambda c: _digest(
                "campaign-fraction", self.seed, c.fingerprint))
            configs = sorted(configs[:keep], key=lambda c: c.index)
        return configs

    # ------------------------------------------------------------------ #
    # JSON round-trip (CLI --spec-file)

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "factors": [
                {"name": f.name, "levels": list(f.levels)}
                for f in self.factors
            ],
            "base": self.base,
            "fraction": self.fraction,
            "seed": self.seed,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"spec is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise CampaignError("spec must be a JSON object")
        factors_raw = raw.get("factors")
        if not isinstance(factors_raw, list):
            raise CampaignError("spec needs a factors list")
        factors = []
        for item in factors_raw:
            if not isinstance(item, dict) or "name" not in item:
                raise CampaignError(f"malformed factor entry: {item!r}")
            factors.append(Factor(item["name"],
                                  tuple(item.get("levels", ()))))
        return cls(
            name=raw.get("name", ""),
            factors=factors,
            base=raw.get("base", {}) or {},
            fraction=float(raw.get("fraction", 1.0)),
            seed=int(raw.get("seed", 0)),
        )


def spread_indices(n: int, count: int) -> List[int]:
    """``count`` indices spread evenly over ``range(n)`` (training-wave
    selection: cover the lattice, not its first corner)."""
    if count >= n:
        return list(range(n))
    if count <= 0:
        return []
    step = n / count
    picked = sorted({min(n - 1, int(i * step)) for i in range(count)})
    # Rounding can collapse neighbours; top up from unused indices.
    extra = (i for i in range(n) if i not in set(picked))
    while len(picked) < count:
        picked.append(next(extra))
    return sorted(picked)
