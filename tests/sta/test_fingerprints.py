"""Content fingerprints: the encoding every digest is taken over (byte
for byte the same as the isinstance-chain encoder it replaced, and
pinned to recorded digests), and the places that keep a digest instead
of recomputing it (session overlays, the daemon's scenario fingerprints,
the per-pass cell-digest memo)."""

import builtins
import collections
import dataclasses
import enum
import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.campaign.runner import demo_spec
from repro.campaign.spec import config_fingerprint, derive_seed
from repro.liberty import LibraryCondition, make_library
from repro.liberty.aocv import AocvTable
from repro.liberty.tables import LookupTable2D
from repro.netlist.generators import aes_like, hierarchical_soc, random_logic
from repro.serve.overlay import DesignOverlay, OverlayEdit
from repro.sta import Constraints, scheduler
from repro.sta.hier import HierScheduler
from repro.sta.mcmm import Scenario, standard_scenario_set
from repro.sta.propagation import Derates
from repro.sta.scheduler import (
    constraints_fingerprint,
    design_fingerprint,
    fingerprint_pass,
    library_fingerprint,
    scenario_fingerprint,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def corner_library(process, vdd, temp):
    return make_library(
        LibraryCondition(process=process, vdd=vdd, temp_c=temp))


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestOverlayFingerprint:
    """The overlay keeps its design fingerprint per commit version."""

    @pytest.fixture()
    def overlay(self):
        design = random_logic(name="fpd", n_gates=40, n_levels=5, seed=2)
        return DesignOverlay(design, "s0")

    def test_memoized_per_version(self, overlay, monkeypatch):
        calls = counting(monkeypatch, scheduler, "design_fingerprint")
        fp1 = overlay.content_fingerprint()
        fp2 = overlay.content_fingerprint()
        assert fp1 == fp2
        assert len(calls) == 1
        assert fp1 == design_fingerprint(overlay.materialize())

    def test_apply_bumps_version_and_fingerprint(self, overlay,
                                                 monkeypatch):
        calls = counting(monkeypatch, scheduler, "design_fingerprint")
        before = overlay.content_fingerprint()
        inst = sorted(overlay.base.instances)[0]
        current = overlay.cell_of(inst)
        alt = next(name for name in make_library().cells
                   if name != current and name.split("_")[0]
                   == current.split("_")[0])
        overlay.apply([OverlayEdit("set_cell", inst, alt)])
        after = overlay.content_fingerprint()
        assert after != before
        assert overlay.content_fingerprint() == after
        assert len(calls) == 2

    def test_discard_restores_base_fingerprint(self, overlay):
        base_fp = overlay.content_fingerprint()
        inst = sorted(overlay.base.instances)[0]
        current = overlay.cell_of(inst)
        alt = next(name for name in make_library().cells
                   if name != current and name.split("_")[0]
                   == current.split("_")[0])
        overlay.apply([OverlayEdit("set_cell", inst, alt)])
        assert overlay.content_fingerprint() != base_fp
        overlay.discard()
        assert overlay.content_fingerprint() == base_fp


class TestDaemonScenarioFingerprints:
    def test_daemon_warms_the_memo_at_startup(self, monkeypatch):
        from repro.serve import server
        from repro.serve.client import TimingClient
        from repro.sta.constraints import Constraints
        from repro.sta.mcmm import Scenario

        design = random_logic(name="fps", n_gates=30, n_levels=4, seed=3)
        cons = Constraints.single_clock(800.0)
        lib = make_library()
        scenarios = [
            Scenario("tt_typ", lib, cons),
            Scenario("tt_cw", lib, cons, beol_corner_name="cw"),
        ]
        calls = counting(monkeypatch, server, "scenario_fingerprint")
        daemon = server.TimingDaemon(design, scenarios)
        assert len(calls) == 2
        assert daemon._fingerprints == {
            s.name: scenario_fingerprint(s) for s in scenarios}
        # Queries read the start-up digests; none is taken again.
        daemon.start()
        try:
            with TimingClient("127.0.0.1", daemon.port,
                              timeout_s=30.0) as client:
                client.request("timing")
                client.request("timing")
        finally:
            daemon.stop()
        assert len(calls) == 2


class TestFingerprintPass:
    """Each library cell is hashed at most once per signoff pass, and
    never from a memo older than the pass."""

    def test_hier_pass_hashes_each_cell_once(self, monkeypatch):
        hier = hierarchical_soc(n_blocks=4, block_gates=30,
                                with_feedthrough=False)
        scenarios = standard_scenario_set(
            hier.top_constraints(period=900.0), corner_library).scenarios
        calls = collections.Counter()
        digest = scheduler._cell_digest

        def counting(cell):
            calls[id(cell)] += 1
            return digest(cell)

        monkeypatch.setattr(scheduler, "_cell_digest", counting)
        outcome = HierScheduler(hier, scenarios, jobs=1,
                                executor="serial").signoff()
        assert outcome.ok
        cells = len(scenarios[0].library.cells)
        assert len(scenarios) == 9 and len(hier.blocks) == 4
        # Every corner cell once, plus one stub cell per (view, block).
        assert sum(calls.values()) <= 9 * cells + 9 * 4
        assert max(calls.values()) == 1

    def test_cell_edited_between_passes_is_rehashed(self):
        lib = make_library()
        cell = lib.cells[sorted(lib.cells)[0]]
        with fingerprint_pass() as outer:
            before = library_fingerprint(lib)
            with fingerprint_pass() as nested:
                assert nested is outer
            cell.leakage *= 2.0
            # Inside the pass the cell's digest is memoized...
            assert library_fingerprint(lib) == before
        # ...and the memo ends with the pass.
        assert library_fingerprint(lib) != before
        with fingerprint_pass() as fresh:
            assert fresh is not outer and len(fresh) == 0

    def test_concurrent_passes_do_not_share_a_memo(self, monkeypatch):
        lib = make_library()
        calls = counting(monkeypatch, scheduler, "_cell_digest")
        barrier = threading.Barrier(2)
        memos = {}

        def run(index):
            with fingerprint_pass() as memo:
                barrier.wait(timeout=30)
                library_fingerprint(lib)
                memos[index] = memo
                barrier.wait(timeout=30)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert memos[0] is not memos[1]
        # Each pass hashed every cell itself, once.
        assert len(calls) == 2 * len(lib.cells)
        for memo in memos.values():
            assert len(memo) == len(lib.cells)

    def test_scenario_fingerprint_is_stable_across_processes(self):
        """Journal keys live on disk: a fresh interpreter (with its own
        hash seed) must compute the same digests."""
        code = (
            "from repro.liberty import LibraryCondition, make_library\n"
            "from repro.sta import Constraints\n"
            "from repro.sta.mcmm import standard_scenario_set\n"
            "from repro.sta.scheduler import scenario_fingerprint\n"
            "def lib(p, v, t):\n"
            "    return make_library(LibraryCondition(process=p, vdd=v,"
            " temp_c=t))\n"
            "for s in standard_scenario_set("
            "Constraints.single_clock(520.0), lib).scenarios:\n"
            "    print(scenario_fingerprint(s))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="random")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        here = [scenario_fingerprint(s) for s in standard_scenario_set(
            Constraints.single_clock(520.0), corner_library).scenarios]
        assert out.stdout.split() == here

    def test_scenarios_and_design_never_hash_by_repr(self, monkeypatch):
        """Every value reaching the hasher has an explicit encoding;
        repr() is only used for ints and strings."""
        fallbacks = set()

        def spy(obj):
            if not isinstance(obj, (int, str)):
                fallbacks.add(type(obj).__name__)
            return builtins.repr(obj)

        monkeypatch.setattr(scheduler, "repr", spy, raising=False)
        hier = hierarchical_soc(n_blocks=2, block_gates=30)
        scenarios = standard_scenario_set(
            hier.top_constraints(period=900.0), corner_library).scenarios
        for s in scenarios:
            scenario_fingerprint(s)
        design_fingerprint(hier.flatten())
        assert fallbacks == set()


# ---------------------------------------------------------------------- #
# byte identity of the encoding


def _reference_feed(h, obj) -> None:
    """The isinstance-chain encoder the type-dispatched one replaced,
    kept verbatim as the reference it must match byte for byte."""
    if obj is None:
        h.update(b"~")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, str, bytes)):
        h.update(repr(obj).encode() if not isinstance(obj, bytes) else obj)
    elif isinstance(obj, float):
        h.update(f"{obj:.12g}".encode())
    elif isinstance(obj, enum.Enum):
        _reference_feed(h, obj.value)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, LookupTable2D):
        h.update(b"LUT")
        for array in (obj.index_1, obj.index_2, obj.values):
            _reference_feed(h, array)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _reference_feed(h, item)
            h.update(b",")
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _reference_feed(h, key)
            h.update(b":")
            _reference_feed(h, obj[key])
            h.update(b",")
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _reference_feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def _reference_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _reference_feed(h, part)
    return h.hexdigest()


def _reference_design_fingerprint(design) -> str:
    h = hashlib.sha256()
    _reference_feed(h, design.name)
    _reference_feed(h, {name: d for name, d in design.ports.items()})
    for name in sorted(design.instances):
        inst = design.instances[name]
        _reference_feed(h, (name, inst.cell_name, inst.connections,
                            inst.location, inst.dont_touch))
    for name in sorted(design.nets):
        net = design.nets[name]
        _reference_feed(h, (name, net.ndr, net.extra_cap))
    return h.hexdigest()


def _reference_library_fingerprint(library) -> str:
    cells = [(name, _reference_digest(cell))
             for name, cell in sorted(library.cells.items())]
    return _reference_digest(library.name, library.process, library.vdd,
                             library.temp_c, library.default_max_transition,
                             cells)


def _reference_scenario_fingerprint(scenario) -> str:
    return _reference_digest(
        _reference_library_fingerprint(scenario.library),
        scenario.beol_corner_name,
        scenario.temp_c,
        scenario.derates,
        _reference_digest(scenario.constraints),
    )


#: Digests recorded with the isinstance-chain encoder. Run journals,
#: checkpoints, ETM caches and campaign DBs on disk hold digests like
#: these, so they pin the format even if the encoder and the reference
#: above drifted together. A deliberate change to the library factory
#: or the generator moves them too; re-record them only then.
PINNED_TT_LIBRARY = (
    "4fcc24007ae015a61c36970e1fccbaec1adbac9d5251c311b34016c4a6d50a33")
PINNED_AES_DESIGN = (
    "34bdae25791ce185ab8071061a17844fd46c0fc31e0b23f9b00a0246f8e2ee32")


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


class Level(enum.Enum):
    LOW = 1
    HIGH = (2, "two")


@dataclasses.dataclass
class Leaf:
    table: np.ndarray
    tag: str = "leaf"


@dataclasses.dataclass
class Node:
    leaf: Leaf
    children: list
    weight: float = 1.0


@dataclasses.dataclass
class Defaults:
    """Passed as a class: hashed as ``type`` plus its field defaults."""

    alpha: float = 0.5
    mode: Mode = Mode.FAST


class Plain:
    """Passed as a class: hashed by repr."""


_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
).flatmap(lambda a: st.sampled_from([a, a.T]))

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6), st.binary(max_size=6),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from(Mode), st.sampled_from(Level),
    st.sampled_from([Defaults, Plain, int]),
    _arrays,
)

_keys = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=4),
                  st.sampled_from(Mode))

_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_keys, inner, max_size=4),
    st.builds(Node,
              leaf=st.builds(Leaf, table=_arrays, tag=st.text(max_size=4)),
              children=st.lists(inner, max_size=3),
              weight=st.floats()),
), max_leaves=12)


class TestEncoderByteIdentity:
    """Every digest equals the isinstance-chain encoder's, so no result
    cache, ETM cache, run journal, checkpoint or campaign DB entry
    misses after the encoder changed."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        return standard_scenario_set(Constraints.single_clock(520.0),
                                     corner_library).scenarios

    def test_pinned_digests(self):
        library = make_library()
        design = aes_like(n_sboxes=2, sbox_gates=30, seed=1)
        assert library_fingerprint(library) == PINNED_TT_LIBRARY
        assert design_fingerprint(design) == PINNED_AES_DESIGN
        # The reference is held to the same pins, so it cannot drift.
        assert _reference_library_fingerprint(library) == PINNED_TT_LIBRARY
        assert _reference_design_fingerprint(design) == PINNED_AES_DESIGN

    def test_nine_view_libraries_and_scenarios(self, scenarios):
        assert len(scenarios) == 9
        for s in scenarios:
            assert library_fingerprint(s.library) \
                == _reference_library_fingerprint(s.library)
            assert scenario_fingerprint(s) \
                == _reference_scenario_fingerprint(s)

    def test_designs(self, monkeypatch):
        designs = (hierarchical_soc(n_blocks=3, block_gates=40).flatten(),
                   aes_like(n_sboxes=6, sbox_gates=60, seed=5))
        want = [_reference_design_fingerprint(d) for d in designs]
        assert [design_fingerprint(d) for d in designs] == want
        # Hashed in many small updates, the digests are the same.
        monkeypatch.setattr(scheduler, "_PIECES_PER_UPDATE", 7)
        assert [design_fingerprint(d) for d in designs] == want

    def test_multi_clock_constraints(self):
        hier = hierarchical_soc(n_blocks=3, block_gates=30,
                                with_feedthrough=False)
        cons = hier.top_constraints(
            period=900.0, periods={sorted(hier.blocks)[0]: 750.0},
            input_delays={"in0": 40.0}, output_delays={"out0": 35.5},
            max_transition=120.0, flat_setup_margin=7.5,
            clock_latency={"u1": 3.25})
        assert len(cons.clocks) == 3
        assert constraints_fingerprint(cons) == _reference_digest(cons)

    def test_aocv_and_per_instance_derates(self, scenarios):
        derates = Derates(
            data_late=1.08, data_early=0.94, clock_late=1.03,
            clock_early=0.97,
            aocv=AocvTable.from_reference_sigma(0.04),
            aocv_distance=220.0,
            instance_late={"u1": 1.1, "u7": 1.05},
            instance_early={"u2": 0.9},
        )
        assert scheduler._digest(derates) == _reference_digest(derates)
        base = scenarios[0]
        view = Scenario("aocv", base.library, base.constraints,
                        beol_corner_name="cw", temp_c=105.0,
                        derates=derates)
        assert scenario_fingerprint(view) \
            == _reference_scenario_fingerprint(view)

    def test_campaign_fingerprints_and_seeds(self):
        spec = demo_spec()
        configs = spec.expand()
        assert len(configs) == spec.size
        for config in configs:
            levels = dict(config.levels)
            fp = _reference_digest("campaign-config",
                                   {k: levels[k] for k in sorted(levels)})
            assert config.fingerprint == config_fingerprint(levels) == fp
            seed = int(_reference_digest("campaign-seed", spec.seed,
                                         fp)[:12], 16) % (2 ** 31 - 1)
            assert config.seed == derive_seed(spec.seed, fp) == seed

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parts=st.lists(_values, max_size=3))
    def test_any_value_encodes_like_the_chain(self, parts):
        assert scheduler._digest(*parts) == _reference_digest(*parts)

    @pytest.mark.parametrize("order", [(Defaults, Plain, int),
                                       (int, Plain, Defaults)])
    def test_class_values_never_fix_the_encoder_for_type(
            self, monkeypatch, order):
        """A dataclass class and a plain class share the type ``type``;
        whichever is seen first must not decide how the other hashes."""
        monkeypatch.setattr(scheduler, "_ENCODERS",
                            scheduler._EncoderTable())
        for cls in order:
            assert scheduler._digest(cls) == _reference_digest(cls)
        assert scheduler._digest([Plain, Defaults]) \
            == _reference_digest([Plain, Defaults])
