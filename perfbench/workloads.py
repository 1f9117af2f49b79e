"""The benchmark's workloads: seeded inputs, a timed window, answer checks.

Every workload drives the program only through its public Python API.
Designs are fixed per workload so that run cost does not depend on the
seed; the seed chooses the work done on them (which cells an ECO swaps,
which configs a sweep runs).

Load is sized for a 2-core machine: one load-generating process, every
fan-out at ``jobs=2`` on the thread executor, a daemon with two workers
and two closed-loop clients.

A workload whose operation runs on one thread (``calibrated = True``:
``closure``, ``signoff_vec``) reports its times in *reference seconds*:
the measured wall time scaled by ``CAL_REFERENCE_S / probe``, where
``probe`` is the wall time of :func:`calibrate`, a fixed pure-Python
loop, timed right after each operation and set-up while the program is
idle. On a shared machine whose speed drifts by tens of percent over
seconds to minutes, the probe slows with the program and the ratio stays
put; a change to the program does not touch the probe, so it shows in
full. Operations that hand the interpreter lock between threads (the
thread fan-outs, the daemon) do not slow with the probe, and scaling
them made their spread worse, so they report plain wall time.
"""

from __future__ import annotations

import concurrent.futures
import copy
import gc
import math
import pathlib
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.campaign import CampaignRunner, CampaignStore, demo_spec
from repro.core.closure import ClosureConfig, ClosureEngine
from repro.errors import ReproError
import repro.liberty
import repro.netlist.transforms as transforms
from repro.liberty import LibraryCondition
from repro.netlist.generators import aes_like, hierarchical_soc
from repro.serve import DaemonConfig, TimingClient, TimingDaemon
from repro.sta import Constraints
from repro.sta.analysis import STA
from repro.sta.hier import HierScheduler
from repro.sta.mcmm import Scenario, standard_scenario_set
from repro.sta.scheduler import ScenarioResultCache, SignoffScheduler

JOBS = 2
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Input sizes. "full" is what the benchmark measures; "smoke" is the
#: small size the self-test runs every workload at.
SIZES = {
    "full": {
        "soc_blocks": 4, "soc_gates": 50,
        "closure_sboxes": 2, "closure_gates": 60, "closure_iterations": 4,
        "whatif_sboxes": 6, "whatif_gates": 60, "whatif_rounds": 16,
        "sweep_fraction": 0.25,
    },
    "smoke": {
        "soc_blocks": 2, "soc_gates": 60,
        "closure_sboxes": 2, "closure_gates": 30, "closure_iterations": 2,
        "whatif_sboxes": 2, "whatif_gates": 30, "whatif_rounds": 2,
        "sweep_fraction": 0.03,
    },
}

SOC_SEED = 1
SOC_PERIOD_PS = 900.0
SOC_SWAPS_PER_ROUND = 8
CLOSURE_DESIGN_SEED = 2001
#: Closure starts this far below the design's own critical path, so every
#: seed runs the full iteration budget with cone and full retimes.
CLOSURE_OVERDRIVE_PS = 350.0
WHATIF_DESIGN_SEED = 2001
WHATIF_PERIOD_PS = 1100.0
WHATIF_HOT_READS = 4
CHECKED_SWEEP_CONFIGS = 2

CAL_LOOPS = 10000
CAL_REPEATS = 3
#: About the median of :func:`calibrate` on the 2-core machine the bounds
#: in BENCHMARK.json were set on; it only fixes the unit.
CAL_REFERENCE_S = 0.005


def calibrate() -> float:
    """Wall seconds a fixed pure-Python loop takes on this machine now.

    Dict lookups, float arithmetic and small branches, like the
    program's own inner loops; the median of ``CAL_REPEATS`` timings, so
    that a burst of other work hitting one of them does not count.
    """
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        table: Dict[int, float] = {}
        acc = 0.0
        for i in range(CAL_LOOPS):
            key = i & 1023
            acc = max(acc * 0.5, table.get(key, 0.0) + (i % 7) * 1.5)
            table[key] = acc
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference(seconds: float, probe: float) -> float:
    """``seconds`` of wall time at the speed a ``probe`` measured, in
    reference seconds (see the module docstring)."""
    return seconds * CAL_REFERENCE_S / probe


def library(process: str = "tt", vdd: float = 0.80,
            temp_c: float = 25.0):
    # Looked up at call time so the traced run's wrapper sees the call.
    return repro.liberty.make_library(
        LibraryCondition(process=process, vdd=vdd, temp_c=temp_c))


def summary(report) -> tuple:
    """The figures a signoff answer is judged by, setup then hold."""
    return (report.wns("setup"), report.tns("setup"),
            report.violation_count("setup"), report.wns("hold"),
            report.tns("hold"), report.violation_count("hold"))


def _differs(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is not b
    if isinstance(a, float) and isinstance(b, float) \
            and math.isinf(a) and math.isinf(b):
        return a != b
    return abs(a - b) > tol


def compare(label: str, got, want, tol: float) -> List[str]:
    """Field-by-field mismatches of two equally shaped tuples/dicts."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{label}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in sorted(want)
                for p in compare(f"{label}.{k}", got[k], want[k], tol)]
    if isinstance(want, (tuple, list)):
        if len(got) != len(want):
            return [f"{label}: {len(got)} fields != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(f"{label}[{i}]", g, w, tol)]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return ([f"{label}: {got!r} != {want!r} (tol {tol})"]
                if _differs(got, want, tol) else [])
    return [] if got == want else [f"{label}: {got!r} != {want!r}"]


@dataclass
class Window:
    """What one measured window produced (times as the module says)."""

    #: Latency samples of the workload's operation.
    latencies_s: List[float] = field(default_factory=list)
    #: Units of work finished (the throughput numerator).
    completed: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Further latency series shown in the table.
    extra: Dict[str, List[float]] = field(default_factory=dict)
    #: Wall seconds of every calibration probe taken.
    probes_s: List[float] = field(default_factory=list)


def serial_window(seconds: float, op, calibrated: bool) -> Window:
    """Run ``op()`` back to back until ``seconds`` pass (at least once).

    ``op`` returns ``(latency_s, attempted, failed, completed)``; it
    times only the program's work, so untimed bookkeeping between ops is
    excluded. When ``calibrated``, a probe follows every op and scales
    that op's latency.
    """
    window = Window()
    t_end = time.perf_counter() + seconds
    while not window.latencies_s or time.perf_counter() < t_end:
        gc.collect()
        latency, attempted, failed, completed = op()
        if calibrated:
            probe = calibrate()
            window.probes_s.append(probe)
            latency = reference(latency, probe)
        window.latencies_s.append(latency)
        window.elapsed_s += latency
        window.attempted += attempted
        window.failed += failed
        window.completed += completed
    return window


class Workload:
    """One named workload; subclasses fill in the steps below."""

    name = ""
    #: What one latency sample and one throughput unit are.
    op = ""
    unit = ""
    #: Headline figures printed by name: figure -> (name, unit), where a
    #: figure is ``<series>_p50``/``<series>_tail`` of a latency series
    #: (``op`` or an ``extra`` one) or ``per_s``, the throughput.
    headlines: Dict[str, tuple] = {}
    #: Whether times are scaled by the calibration probe (see the
    #: module docstring).
    calibrated = False

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[size]

    def setup(self) -> None:
        """Build libraries and inputs and warm up; safe to repeat."""
        raise NotImplementedError

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def answers(self):
        """The program's outputs the check judges."""
        raise NotImplementedError

    def check(self, answers) -> List[str]:
        """Mismatches between ``answers`` and an independent oracle."""
        raise NotImplementedError

    def perturb(self, answers):
        """A deliberately wrong copy of ``answers`` (self-test)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# signoff: nine-view re-signoff after seeded Vt swaps, one route each


class Signoff(Workload):
    """A hierarchical SoC re-signed off over the nine-view scenario set
    after each round of seeded Vt swaps in one block."""

    op = "re-signoff pass"
    unit = "passes"
    route = ""

    def setup(self) -> None:
        size = self.size
        self.rng = random.Random(self.seed)
        self.hier = hierarchical_soc(seed=SOC_SEED,
                                     n_blocks=size["soc_blocks"],
                                     block_gates=size["soc_gates"])
        constraints = self.hier.top_constraints(period=SOC_PERIOD_PS)
        self.scenarios = standard_scenario_set(constraints,
                                               library).scenarios
        self.lib = next(s.library for s in self.scenarios
                        if s.name.startswith("tt_"))
        self.flat = self.hier.flatten()
        self.cache = ScenarioResultCache()
        self.last = None
        self.rounds = 0
        if self.route == "hier":  # the cold pass fills the ETM cache
            self._hier().signoff()

    def _hier(self) -> HierScheduler:
        return HierScheduler(self.hier, self.scenarios, jobs=JOBS,
                             executor="thread", etm_cache=self.cache)

    def _flat(self, engine: str) -> SignoffScheduler:
        return SignoffScheduler(self.scenarios, jobs=JOBS,
                                executor="thread", engine=engine)

    def _swap_round(self) -> None:
        """Seeded Vt swaps in one block, mirrored into the flat view.

        Blocks take turns in a fixed order (their extraction costs
        differ); the seed picks the cells and flavors.
        """
        blocks = sorted(self.hier.blocks)
        block = blocks[self.rounds % len(blocks)]
        self.rounds += 1
        design = self.hier.blocks[block].design
        names = sorted(
            name for name, inst in design.instances.items()
            if not inst.dont_touch
            and not self.lib.cell(inst.cell_name).is_sequential)
        for name in self.rng.sample(names, min(SOC_SWAPS_PER_ROUND,
                                               len(names))):
            cell = self.lib.cell(design.instance(name).cell_name)
            flavor = self.rng.choice(
                [f for f in ("lvt", "svt", "hvt") if f != cell.vt_flavor])
            transforms.swap_vt(design, self.lib, name, flavor)
            transforms.swap_vt(self.flat, self.lib, f"{block}_{name}",
                               flavor)

    def _pass(self):
        self._swap_round()
        t0 = time.perf_counter()
        if self.route == "hier":
            outcome = self._hier().signoff()
        else:
            outcome = self._flat(self.route).signoff(self.flat)
        latency = time.perf_counter() - t0
        self.last = outcome
        if self.route == "hier":
            degraded = sum(e.status == "degraded"
                           for e in outcome.extractions)
            return (latency, len(self.scenarios) + outcome.etm_computed,
                    len(outcome.degraded) + degraded, 1)
        return latency, len(self.scenarios), len(outcome.degraded), 1

    def window(self, seconds: float) -> Window:
        return serial_window(seconds, self._pass, self.calibrated)

    def answers(self):
        if self.route == "hier":
            return (self.last.merged_wns("setup"),
                    self.last.merged_wns("hold"))
        return {name: summary(report)
                for name, report in self.last.reports.items()}

    def check(self, answers) -> List[str]:
        if self.route == "hier":
            flat = self._flat("reference").signoff(self.flat).result
            return compare("hier merged WNS vs flat", answers,
                           (flat.merged_wns("setup"),
                            flat.merged_wns("hold")), 1.0)
        other = "vector" if self.route == "reference" else "reference"
        oracle = self._flat(other).signoff(self.flat)
        problems = compare(
            f"{self.route} vs {other}", answers,
            {n: summary(r) for n, r in oracle.reports.items()}, 1e-9)
        if len(answers) != len(self.scenarios):
            problems.append(f"{len(answers)} of {len(self.scenarios)} "
                            "scenarios answered")
        return problems

    def perturb(self, answers):
        if self.route == "hier":
            return (answers[0] + 2.0, answers[1])
        wrong = dict(answers)
        name = sorted(wrong)[0]
        wrong[name] = (wrong[name][0] - 1e-6,) + wrong[name][1:]
        return wrong


class SignoffRef(Signoff):
    name = "signoff_ref"
    headlines = {"op_p50": ("signoff_ref_s", "s")}
    route = "reference"


class SignoffVec(Signoff):
    name = "signoff_vec"
    headlines = {"op_p50": ("signoff_vec_s", "s")}
    route = "vector"
    calibrated = True


class SignoffHier(Signoff):
    name = "signoff_hier"
    headlines = {"op_p50": ("signoff_hier_s", "s")}
    route = "hier"


# ---------------------------------------------------------------------- #
# closure: the Fig 1 repair/retime loop


class Closure(Workload):
    """``ClosureEngine.run`` on an AES-profile block driven past its
    critical path, default fix order, incremental retiming.

    The inputs do not depend on the seed: any change to them (even
    picosecond arrival jitter) moves the repair trajectory, and with it
    the run's cost, by tens of percent.
    """

    name = "closure"
    op = "closure run"
    unit = "runs"
    headlines = {"op_p50": ("closure_s", "s")}
    calibrated = True

    def _inputs(self, period: float):
        size = self.size
        n = size["closure_sboxes"]
        design = aes_like(n_sboxes=n, sbox_gates=size["closure_gates"],
                          seed=CLOSURE_DESIGN_SEED)
        constraints = Constraints.single_clock(period)
        constraints.input_delays = {f"in_{s}_{b}": 120.0
                                    for s in range(n) for b in range(8)}
        # The ideal clock net's RC slew trips the library limit without
        # reflecting a data-path problem.
        constraints.max_transition = 300.0
        return design, constraints

    def setup(self) -> None:
        self.lib = library()
        design, constraints = self._inputs(2000.0)
        wns = STA(design, self.lib, constraints).run().wns("setup")
        self.period = 2000.0 - wns - CLOSURE_OVERDRIVE_PS
        self.engine = None
        self.report = None

    def _run(self):
        design, constraints = self._inputs(self.period)
        engine = ClosureEngine(design, self.lib, constraints)
        config = ClosureConfig(
            max_iterations=self.size["closure_iterations"],
            timing="incremental", engine="reference")
        t0 = time.perf_counter()
        report = engine.run(config)
        latency = time.perf_counter() - t0
        self.engine, self.report = engine, report
        return latency, 1, int(report.aborted is not None), 1

    def window(self, seconds: float) -> Window:
        return serial_window(seconds, self._run, self.calibrated)

    def answers(self):
        return summary(self.report.final)

    def check(self, answers) -> List[str]:
        fresh = STA(self.engine.design, self.lib,
                    self.engine.constraints).run()
        return compare("closure final vs fresh STA", answers,
                       summary(fresh), 1e-9)

    def perturb(self, answers):
        return answers[:1] + (answers[1] - 0.5,) + answers[2:]


# ---------------------------------------------------------------------- #
# whatif: ECOs and reads against the timing daemon


class WhatIf(Workload):
    """Two closed-loop clients against a two-worker ``TimingDaemon``.

    Each client opens a session, runs rounds of one seeded ECO (Vt swap
    or resize), one cache-cold ``timing`` and four cache-hot ``timing``
    reads, then closes the session and opens the next one. The operation
    is the ECO, from sending ``apply_eco`` until the cold answer
    arrives; one completes per round.
    """

    name = "whatif"
    op = "ECO (apply_eco + cold timing)"
    unit = "rounds"
    headlines = {
        "op_p50": ("eco_p50_ms", "ms"), "op_tail": ("eco_tail_ms", "ms"),
        "read_p50": ("read_p50_ms", "ms"), "read_tail": ("read_tail_ms", "ms"),
        "per_s": ("whatif_per_s", "rounds/s"),
    }
    clients = 2
    #: The sample series that is the operation; the other one is shown.
    gated = "eco"

    def setup(self) -> None:
        self.close()
        size = self.size
        n = size["whatif_sboxes"]
        self.design = aes_like(n_sboxes=n, sbox_gates=size["whatif_gates"],
                               seed=WHATIF_DESIGN_SEED)
        constraints = Constraints.single_clock(WHATIF_PERIOD_PS)
        constraints.input_delays = {f"in_{s}_{b}": 120.0
                                    for s in range(n) for b in range(8)}
        constraints.max_transition = 300.0
        self.lib = library()
        self.scenarios = [
            Scenario("tt_typ", self.lib, constraints),
            Scenario("ss_cw", library("ss", 0.72, 125.0), constraints,
                     beol_corner_name="cw", temp_c=125.0),
        ]
        self.candidates = sorted(
            name for name, inst in self.design.instances.items()
            if not self.lib.cell(inst.cell_name).is_sequential)
        self.daemon = TimingDaemon(
            self.design, self.scenarios,
            config=DaemonConfig(workers=JOBS, engine="vector"))
        self.port = self.daemon.start()
        with TimingClient("127.0.0.1", self.port) as client:
            client.request("timing")
        self.sessions: List[list] = []
        self._lock = threading.Lock()

    def _edit(self, rng: random.Random, name: str) -> dict:
        cell = self.lib.cell(self.design.instance(name).cell_name)
        kinds = ["vt", "size"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "vt":
                options = [self.lib.swap_variant(cell, vt_flavor=f)
                           for f in ("lvt", "svt", "hvt")
                           if f != cell.vt_flavor]
            else:
                options = [c for c in self.lib.size_menu(cell)
                           if c.size != cell.size]
            options = [c for c in options if c is not None]
            if options:
                return {"kind": "set_cell", "target": name,
                        "value": rng.choice(options).name}
        raise ReproError(f"no ECO variant for {name}")

    def _client(self, index: int, t_end: float) -> dict:
        """One closed-loop client; returns its samples and counts.

        A failed request counts as an infinite latency, since it misses
        any latency limit.
        """
        rng = random.Random(self.seed * 7919 + index)
        out = {"eco": [], "read": [], "attempted": 0, "failed": 0}
        with TimingClient("127.0.0.1", self.port) as client:
            request = _requester(client, out)
            session = None
            while time.perf_counter() < t_end:
                if session is None:
                    session = self._open(request, rng)
                    continue
                self._round(request, session, rng, out)
                if not session["names"]:
                    self._finish(request, session, index)
                    session = None
            if session is not None:
                self._finish(request, session, index)
        return out

    def _open(self, request, rng: random.Random) -> Optional[dict]:
        opened = request("open_session")
        if opened is None:
            return None
        return {"sid": opened["session"], "edits": [], "rows": None,
                "names": rng.sample(self.candidates,
                                    self.size["whatif_rounds"]),
                "known": True}

    def _round(self, request, session: dict, rng: random.Random,
               out: dict) -> None:
        """One seeded ECO with its cold timing, then the hot reads.

        ``session["rows"]`` keeps only timing rows that come after the
        session's last applied edit. A failed ``apply_eco`` leaves it
        unknown whether the daemon holds the edit, so the session is not
        checked (its failure is counted).
        """
        sid = session["sid"]
        edit = self._edit(rng, session["names"].pop())
        t0 = time.perf_counter()
        applied = request("apply_eco", {"edits": [edit]}, sid)
        if applied is None:
            session["known"] = False
            out["eco"].append(math.inf)
            return
        session["edits"].append(edit)
        session["rows"] = None
        cold = request("timing", session=sid)
        if cold is None:
            out["eco"].append(math.inf)
            return
        out["eco"].append(time.perf_counter() - t0)
        session["rows"] = cold["scenarios"]
        for _ in range(WHATIF_HOT_READS):
            t0 = time.perf_counter()
            hot = request("timing", session=sid)
            if hot is None:
                out["read"].append(math.inf)
                continue
            out["read"].append(time.perf_counter() - t0)
            session["rows"] = hot["scenarios"]

    def _finish(self, request, session: dict, index: int) -> None:
        request("close_session", session=session["sid"])
        if session["known"] and session["rows"] is not None:
            with self._lock:
                self.sessions.append(
                    [index, session["edits"], session["rows"]])

    def window(self, seconds: float) -> Window:
        t0 = time.perf_counter()
        t_end = t0 + seconds
        with concurrent.futures.ThreadPoolExecutor(self.clients) as pool:
            parts = [f.result() for f in [
                pool.submit(self._client, i, t_end)
                for i in range(self.clients)]]
        elapsed = time.perf_counter() - t0
        series = {name: [v for part in parts for v in part[name]]
                  for name in ("eco", "read")}
        latencies = series.pop(self.gated)
        return Window(
            latencies_s=latencies,
            completed=sum(math.isfinite(v) for v in latencies),
            elapsed_s=elapsed,
            attempted=sum(part["attempted"] for part in parts),
            failed=sum(part["failed"] for part in parts),
            extra=series)

    def stats(self) -> dict:
        with TimingClient("127.0.0.1", self.port) as client:
            return client.request("stats")

    def answers(self):
        """Every session's edits and its last timing rows."""
        return {f"client{index}.session{n}": (edits, rows)
                for n, (index, edits, rows) in enumerate(self.sessions)}

    def check(self, answers) -> List[str]:
        problems = []
        clients = {key.split(".")[0] for key in answers}
        if len(clients) != self.clients:
            problems.append(f"{len(clients)} of {self.clients} clients "
                            "finished a session")
        stack = default_stack()
        for key, (edits, rows) in sorted(answers.items()):
            design = copy.deepcopy(self.design)
            for edit in edits:
                transforms.swap_cell(design, self.lib, edit["target"],
                                     edit["value"])
            want = {}
            for s in self.scenarios:
                report = STA(
                    design, s.library, s.constraints, stack=stack,
                    beol_corner=conventional_corners(stack)[
                        s.beol_corner_name],
                    temp_c=s.temp_c, derates=s.derates).run()
                want[s.name] = _wire_row(report)
            problems += compare(f"{key} daemon vs local STA", rows, want,
                                1e-6)
        return problems

    def perturb(self, answers):
        wrong = copy.deepcopy(answers)
        _, rows = wrong[min(wrong)]
        row = rows[sorted(rows)[0]]
        row["tns_setup"] = (row["tns_setup"] or 0.0) - 0.01
        return wrong

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()
            self.daemon = None


class WhatIfRead(WhatIf):
    """Cache-hot ``timing`` reads beside the same ECO traffic, so that a
    change which speeds ECOs at the cost of reads shows.

    Client 0 runs the what-if rounds; client 1 reads its own unedited
    session back to back, and its reads are the operation. (Timing the
    reads inside the rounds instead mixes reads that overlap the other
    client's ECO with reads that do not, in a share that the clients'
    phase sets per run; that median spread twice as wide.)
    """

    name = "whatif_read"
    op = "cache-hot timing read"
    unit = "reads"
    headlines = {
        "op_p50": ("read_p50_ms", "ms"), "op_tail": ("read_tail_ms", "ms"),
        "eco_p50": ("eco_p50_ms", "ms"), "eco_tail": ("eco_tail_ms", "ms"),
    }
    gated = "read"

    def _client(self, index: int, t_end: float) -> dict:
        if index == 0:
            out = super()._client(index, t_end)
            out["read"] = []  # only the reader's reads are the operation
            return out
        out = {"eco": [], "read": [], "attempted": 0, "failed": 0}
        with TimingClient("127.0.0.1", self.port) as client:
            request = _requester(client, out)
            session = None
            while session is None and time.perf_counter() < t_end:
                session = self._open(request, random.Random(self.seed))
            while session is not None and time.perf_counter() < t_end:
                t0 = time.perf_counter()
                hot = request("timing", session=session["sid"])
                if hot is None:
                    out["read"].append(math.inf)
                    continue
                out["read"].append(time.perf_counter() - t0)
                session["rows"] = hot["scenarios"]
            if session is not None:
                self._finish(request, session, index)
        return out


def _requester(client, out: dict):
    """``client.request`` that counts attempts and failures in ``out``
    and returns None for a failed request."""

    def request(op, params=None, session=None):
        out["attempted"] += 1
        try:
            return client.request(op, params, session=session)
        except ReproError:
            out["failed"] += 1
            return None

    return request


def _wire_row(report) -> dict:
    """A report as the daemon's ``timing`` op puts it on the wire."""

    def num(value: float) -> Optional[float]:
        return None if math.isinf(value) else round(value, 6)

    return {
        "wns_setup": num(report.wns("setup")),
        "tns_setup": num(report.tns("setup")),
        "violations_setup": report.violation_count("setup"),
        "wns_hold": num(report.wns("hold")),
        "tns_hold": num(report.tns("hold")),
        "violations_hold": report.violation_count("hold"),
        "slew_violations": len(report.slew_violations),
    }


# ---------------------------------------------------------------------- #
# sweep: a campaign of signoff configs into a fresh SQLite store


class Sweep(Workload):
    """``CampaignRunner.run`` over a seeded fraction of ``demo_spec()``,
    one wave at a time, into a fresh results store.

    One operation is one wave: a single ``run`` call over one config of
    every (block, SSTA on/off) stratum, so every wave has the same mix
    of cheap and expensive configs. Throughput counts configs.
    """

    name = "sweep"
    op = "wave (one config per stratum)"
    unit = "configs"
    headlines = {"per_s": ("sweep_configs_per_s", "configs/s")}

    def setup(self) -> None:
        self.close()
        _clear_library_cache()
        self.spec = demo_spec(seed=self.seed)
        self.waves = _stratified(self.spec.expand(),
                                 self.size["sweep_fraction"],
                                 random.Random(self.seed))
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="sweep-",
                                                 dir=OUT_DIR))
        # Warm-up: the first config builds the corner libraries.
        with CampaignStore(self.tmp / "warmup.db") as store:
            self._runner(store).run(configs=self.waves[0][:1])
        self.stores = 0
        self._open_store()
        self.next = 0

    def _open_store(self) -> None:
        self.stores += 1
        self.store = CampaignStore(self.tmp / f"store{self.stores}.db")

    def _runner(self, store=None, jobs=JOBS, executor="thread"):
        return CampaignRunner(self.spec, store or self.store, jobs=jobs,
                              executor=executor, chunk=len(self.waves[0]))

    def _wave(self):
        if self.next >= len(self.waves):  # every wave ran: start over
            self.store.close()
            self._open_store()
            self.next = 0
        wave = self.waves[self.next]
        self.next += 1
        t0 = time.perf_counter()
        outcome = self._runner().run(configs=wave)
        latency = time.perf_counter() - t0
        return (latency, len(wave), len(outcome.degraded),
                len(outcome.computed))

    def window(self, seconds: float) -> Window:
        return serial_window(seconds, self._wave, self.calibrated)

    def answers(self):
        kept = {row["fingerprint"]: row
                for row in self.store.rows(self.spec.name, status="ok")}
        picked = random.Random(self.seed).sample(
            sorted(kept), min(CHECKED_SWEEP_CONFIGS, len(kept)))
        return {fp: _sweep_answer(self.store, kept[fp]) for fp in picked}

    def check(self, answers) -> List[str]:
        by_fp = {c.fingerprint: c for wave in self.waves for c in wave}
        path = self.tmp / "recheck.db"
        path.unlink(missing_ok=True)
        with CampaignStore(path) as store:
            self._runner(store, jobs=1, executor="serial").run(
                configs=[by_fp[fp] for fp in sorted(answers)])
            want = {row["fingerprint"]: _sweep_answer(store, row)
                    for row in store.rows(self.spec.name, status="ok")}
        problems = compare("sweep rows vs serial re-run", answers, want, 0.0)
        if len(answers) < min(CHECKED_SWEEP_CONFIGS, len(by_fp)):
            problems.append(f"only {len(answers)} configs to check")
        return problems

    def perturb(self, answers):
        wrong = copy.deepcopy(answers)
        fp = sorted(wrong)[0]
        wrong[fp]["row"]["power_mw"] += 1e-3
        return wrong

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            self.store = None
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
            self.tmp = None


def _stratified(configs, fraction: float, rng: random.Random) -> list:
    """A seeded ``fraction`` of ``configs`` as waves of one config per
    (block, SSTA on/off) stratum; run cost then barely depends on the
    seed. ``demo_spec`` strata are equally large.
    """
    strata: Dict[tuple, list] = {}
    for config in configs:
        levels = config.assignment
        key = (levels["block"], levels["tune_tau"] > 0.0)
        strata.setdefault(key, []).append(config)
    per_stratum = max(1, round(fraction * min(map(len, strata.values()))))
    picked = [rng.sample(strata[key], per_stratum) for key in sorted(strata)]
    return [list(wave) for wave in zip(*picked)]


def _sweep_answer(store, row) -> dict:
    """A committed config minus its wall clock, with its scenario rows."""
    kept = {k: v for k, v in row.items() if k != "wall_s"}
    return {"row": kept,
            "scenarios": store.scenario_rows(row["fingerprint"])}


def _clear_library_cache() -> None:
    """Empty the campaign workers' per-condition library cache, so each
    repeated set-up pays for its libraries again."""
    import repro.campaign.runner as runner

    getattr(runner, "_LIB_CACHE", {}).clear()


WORKLOADS = {cls.name: cls for cls in (
    SignoffRef, SignoffVec, SignoffHier, Closure, WhatIf, WhatIfRead,
    Sweep)}
