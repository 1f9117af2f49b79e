"""The signoff-criteria engine.

A signoff *policy* bundles what the paper calls the central engineering
team's highest-leverage decisions: which scenario matrix to run, what
flat margins to apply, whether setup is signed off at worst-case corners
or at typical-with-AVS, and whether tightened BEOL corners are in play.
``evaluate`` renders a verdict with the full evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aging.avs import AvsController
from repro.errors import SignoffError
from repro.netlist.design import Design
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.sta.mcmm import McmmResult, Scenario, ScenarioSet
from repro.core.margins import MarginStackup


@dataclass
class SignoffPolicy:
    """How signoff is decided."""

    scenarios: ScenarioSet
    margins: MarginStackup = field(default_factory=MarginStackup)
    #: "worst_corner": classic — setup must pass every scenario with the
    #: full flat margin. "typical_avs": the new goal post — setup signs
    #: off at typical with reduced margin, and AVS headroom covers the
    #: slow-corner gap.
    setup_style: str = "worst_corner"
    avs_v_max: float = 1.0

    def __post_init__(self):
        if self.setup_style not in ("worst_corner", "typical_avs"):
            raise SignoffError(f"unknown setup style {self.setup_style!r}")

    def setup_margin(self) -> float:
        if self.setup_style == "typical_avs":
            return self.margins.with_avs().rss_total()
        return self.margins.linear_total()


@dataclass
class SignoffVerdict:
    """The outcome of a signoff evaluation."""

    passed: bool
    setup_wns: float
    hold_wns: float
    margin_applied: float
    worst_scenario: str
    scenario_wns: Dict[str, float]
    avs_voltage: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"signoff: {'PASS' if self.passed else 'FAIL'}",
            f"  setup WNS {self.setup_wns:9.2f} ps "
            f"(margin {self.margin_applied:.1f} ps applied)",
            f"  hold  WNS {self.hold_wns:9.2f} ps",
            f"  worst scenario: {self.worst_scenario}",
        ]
        if self.avs_voltage is not None:
            lines.append(f"  AVS guarantee voltage: {self.avs_voltage:.3f} V")
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


def evaluate_signoff(
    design: Design,
    policy: SignoffPolicy,
) -> SignoffVerdict:
    """Run the policy's scenario matrix and render a verdict.

    ``worst_corner``: setup WNS (over all scenarios) minus the linear
    flat margin must be >= 0, hold WNS >= 0.

    ``typical_avs``: setup is judged at the scenario named closest to
    typical with the reduced (AVS, RSS) margin; the slow-corner gap must
    be coverable by AVS within the rail range — verified by actually
    running the AVS controller against the worst scenario's conditions.
    """
    with obs_tracing.span("evaluate_signoff", design=design.name,
                          style=policy.setup_style) as sp:
        verdict = _evaluate(design, policy)
        sp.set(passed=verdict.passed)
    obs_metrics.inc("signoff.verdicts")
    obs_metrics.inc("signoff.verdicts.passed" if verdict.passed
                    else "signoff.verdicts.failed")
    return verdict


def _evaluate(design: Design, policy: SignoffPolicy) -> SignoffVerdict:
    result: McmmResult = policy.scenarios.run(design)
    margin = policy.setup_margin()
    scenario_wns = {n: r.wns("setup") for n, r in result.reports.items()}
    hold_wns = result.merged_wns("hold")
    worst = result.worst_scenario("setup")
    notes: List[str] = []

    if policy.setup_style == "worst_corner":
        setup_wns = result.merged_wns("setup") - margin
        passed = setup_wns >= 0.0 and hold_wns >= 0.0
        return SignoffVerdict(
            passed=passed,
            setup_wns=setup_wns,
            hold_wns=hold_wns,
            margin_applied=margin,
            worst_scenario=worst,
            scenario_wns=scenario_wns,
        )

    # typical_avs
    typical_name = _most_typical(policy.scenarios)
    typ_wns = scenario_wns[typical_name] - margin
    worst_scenario = min(policy.scenarios.scenarios,
                         key=lambda s: scenario_wns[s.name])
    avs = AvsController(
        design=design,
        constraints=worst_scenario.constraints,
        process=worst_scenario.library.process,
        temp_c=worst_scenario.temperature,
        v_max=policy.avs_v_max,
    )
    try:
        v_needed = avs.voltage_for(0.0)
        avs_ok = True
        notes.append(
            f"slow-corner ({worst_scenario.name}) closes at {v_needed:.3f} V"
        )
    except SignoffError:
        v_needed = None
        avs_ok = False
        notes.append(
            f"AVS cannot close {worst_scenario.name} within "
            f"{policy.avs_v_max} V"
        )
    passed = typ_wns >= 0.0 and hold_wns >= 0.0 and avs_ok
    return SignoffVerdict(
        passed=passed,
        setup_wns=typ_wns,
        hold_wns=hold_wns,
        margin_applied=margin,
        worst_scenario=worst,
        scenario_wns=scenario_wns,
        avs_voltage=v_needed,
        notes=notes,
    )


def _most_typical(scenarios: ScenarioSet) -> str:
    """The scenario whose library is closest to tt/nominal."""
    def badness(s: Scenario) -> float:
        lib = s.library
        return (
            (0.0 if lib.process == "tt" else 1.0)
            + abs(lib.vdd - 0.8)
            + abs(s.temperature - 25.0) / 1000.0
        )

    return min(scenarios.scenarios, key=badness).name
