"""The shared fingerprint memo: token-validated caching of content
digests, and its production users (session overlays, the daemon's
scenario fingerprints, the per-pass cell-digest memo)."""

import builtins
import collections
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import hierarchical_soc, random_logic
from repro.serve.overlay import DesignOverlay, OverlayEdit
from repro.sta import Constraints, scheduler
from repro.sta.hier import HierScheduler
from repro.sta.mcmm import standard_scenario_set
from repro.sta.scheduler import (
    FingerprintMemo,
    design_fingerprint,
    fingerprint_pass,
    library_fingerprint,
    scenario_fingerprint,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def corner_library(process, vdd, temp):
    return make_library(
        LibraryCondition(process=process, vdd=vdd, temp_c=temp))


class TestFingerprintMemo:
    def test_caches_under_stable_token(self):
        memo = FingerprintMemo()
        calls = []

        def compute():
            calls.append(1)
            return "digest-a"

        assert memo.get("k", 7, compute) == "digest-a"
        assert memo.get("k", 7, compute) == "digest-a"
        assert len(calls) == 1
        assert memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1

    def test_token_move_recomputes(self):
        memo = FingerprintMemo()
        assert memo.get("k", 1, lambda: "one") == "one"
        assert memo.get("k", 2, lambda: "two") == "two"
        # Stale tokens are not kept around: going back recomputes too.
        assert memo.get("k", 1, lambda: "one-again") == "one-again"
        assert memo.misses == 3 and memo.hits == 0

    def test_none_token_means_compute_once(self):
        memo = FingerprintMemo()
        memo.get("s1", None, lambda: "fp1")
        assert memo.get("s1", None, lambda: pytest.fail("recomputed")) \
            == "fp1"

    def test_keys_are_independent(self):
        memo = FingerprintMemo()
        memo.get("a", 0, lambda: "fa")
        memo.get("b", 0, lambda: "fb")
        assert memo.get("a", 0, lambda: "x") == "fa"
        assert memo.get("b", 0, lambda: "x") == "fb"
        assert len(memo) == 2

    def test_invalidate(self):
        memo = FingerprintMemo()
        memo.get("a", 0, lambda: "fa")
        memo.get("b", 0, lambda: "fb")
        memo.invalidate("a")
        assert len(memo) == 1
        assert memo.get("a", 0, lambda: "fa2") == "fa2"
        memo.invalidate()
        assert len(memo) == 0


class TestOverlayFingerprint:
    """The overlay memoizes its design fingerprint through the shared
    helper, keyed by commit version."""

    @pytest.fixture()
    def overlay(self):
        design = random_logic(name="fpd", n_gates=40, n_levels=5, seed=2)
        return DesignOverlay(design, "s0")

    def test_memoized_per_version(self, overlay):
        fp1 = overlay.content_fingerprint()
        fp2 = overlay.content_fingerprint()
        assert fp1 == fp2
        assert overlay._fp_memo.hits == 1
        assert overlay._fp_memo.misses == 1
        assert fp1 == design_fingerprint(overlay.materialize())

    def test_apply_bumps_version_and_fingerprint(self, overlay):
        before = overlay.content_fingerprint()
        inst = sorted(overlay.base.instances)[0]
        current = overlay.cell_of(inst)
        alt = next(name for name in make_library().cells
                   if name != current and name.split("_")[0]
                   == current.split("_")[0])
        overlay.apply([OverlayEdit("set_cell", inst, alt)])
        after = overlay.content_fingerprint()
        assert after != before
        assert overlay._fp_memo.misses == 2

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
    def test_daemon_warms_the_memo_at_startup(self):
        from repro.serve.server import TimingDaemon
        from repro.sta.constraints import Constraints
        from repro.sta.mcmm import Scenario

        design = random_logic(name="fps", n_gates=30, n_levels=4, seed=3)
        cons = Constraints.single_clock(800.0)
        lib = make_library()
        scenarios = [
            Scenario("tt_typ", lib, cons),
            Scenario("tt_cw", lib, cons, beol_corner_name="cw"),
        ]
        daemon = TimingDaemon(design, scenarios)
        assert len(daemon._fingerprints) == 2
        for s in scenarios:
            assert daemon._fingerprints.get(
                s.name, None, lambda: pytest.fail("not warmed")) \
                == scenario_fingerprint(s)


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

    def test_concurrent_passes_do_not_share_a_memo(self):
        lib = make_library()
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
        for memo in memos.values():
            assert len(memo) == memo.misses == len(lib.cells)
            assert memo.hits == 0

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
