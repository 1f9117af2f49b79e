"""Tests for the campaign runner: validation, determinism, resume,
degradation, and tracing."""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    DEFAULT_AXES,
    Factor,
    pareto_front,
)
from repro.campaign.store import METRIC_COLUMNS
from repro.errors import CampaignError
from repro.obs import tracing as obs_tracing
from repro.runtime.supervisor import RetryPolicy
from repro.sta.kernel import ENGINES


def small_spec(name="small", **kwargs):
    return CampaignSpec(
        name=name,
        factors=[
            Factor("period", (480.0, 500.0)),
            Factor("recipe", ("none", "lvt_crit")),
        ],
        seed=5,
        **kwargs,
    )


def make_runner(spec, store, **kwargs):
    kwargs.setdefault("executor", "serial")
    kwargs.setdefault("policy", RetryPolicy(retries=0, backoff_s=0.0))
    return CampaignRunner(spec, store, **kwargs)


def comparable(row):
    keep = {"fingerprint", "idx", "seed", "status", "levels"}
    keep.update(m for m in METRIC_COLUMNS if m != "wall_s")
    return {k: row.get(k) for k in keep}


class TestValidation:
    def test_unknown_factor_rejected(self):
        spec = CampaignSpec(name="x", factors=[Factor("typo", (1,))])
        with pytest.raises(CampaignError):
            CampaignRunner(spec, store=None)

    def test_unknown_base_key_rejected(self):
        spec = CampaignSpec(name="x",
                            factors=[Factor("period", (500.0,))],
                            base={"typo": 1})
        with pytest.raises(CampaignError):
            CampaignRunner(spec, store=None)

    def test_unknown_recipe_rejected(self):
        spec = CampaignSpec(name="x",
                            factors=[Factor("recipe", ("resynth",))])
        with pytest.raises(CampaignError):
            CampaignRunner(spec, store=None)

    def test_unknown_block_rejected(self):
        spec = CampaignSpec(name="x",
                            factors=[Factor("block", ("soc_gpu",))])
        with pytest.raises(CampaignError):
            CampaignRunner(spec, store=None)

    def test_unknown_engine_rejected(self):
        spec = CampaignSpec(name="x",
                            factors=[Factor("engine", ("magic",))])
        with pytest.raises(CampaignError) as info:
            CampaignRunner(spec, store=None)
        assert info.value.context["engines"] == ",".join(ENGINES)

    def test_bad_chunk(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignRunner(small_spec(), store=None, chunk=0)

    def test_bad_triage_budgets(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            runner = make_runner(small_spec(), store)
            with pytest.raises(CampaignError):
                runner.run_triaged(budget=0.0)
            with pytest.raises(CampaignError):
                runner.run_triaged(budget=0.5, train=0.6)
            with pytest.raises(CampaignError):
                runner.run_triaged(model="forest")


class TestDaemonSpecValidation:
    def test_swept_fixed_factor_rejected(self):
        from repro.campaign.runner import validate_daemon_spec

        spec = CampaignSpec(
            name="x",
            factors=[Factor("block", ("soc_ctrl", "soc_dsp"))],
        )
        with pytest.raises(CampaignError):
            validate_daemon_spec(spec)

    def test_nondefault_fixed_base_rejected(self):
        from repro.campaign.runner import validate_daemon_spec

        spec = CampaignSpec(
            name="x",
            factors=[Factor("period", (480.0, 500.0))],
            base={"margin_ps": 15.0},
        )
        with pytest.raises(CampaignError):
            validate_daemon_spec(spec)

    def test_sweepable_spec_accepted(self):
        from repro.campaign.runner import validate_daemon_spec

        validate_daemon_spec(small_spec())


class TestRunDeterminism:
    def test_same_spec_same_rows_and_front(self, tmp_path):
        fronts = []
        snapshots = []
        for tag in ("a", "b"):
            with CampaignStore(tmp_path / f"{tag}.db") as store:
                outcome = make_runner(small_spec(), store).run()
                assert outcome.ok
                assert len(outcome.computed) == 4
                rows = store.rows("small")
                snapshots.append([comparable(r) for r in rows])
                fronts.append(sorted(
                    r["fingerprint"]
                    for r in pareto_front(rows, DEFAULT_AXES)
                ))
        assert snapshots[0] == snapshots[1]
        assert fronts[0] == fronts[1]

    def test_metrics_populated(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            make_runner(small_spec(), store).run()
            for row in store.rows("small"):
                assert row["wns"] is not None
                assert row["power_mw"] > 0.0
                assert row["area_um2"] > 0.0
                assert row["wall_s"] > 0.0
                assert row["tyield"] is None  # tune_tau unswept -> 0
                scen = store.scenario_rows(row["fingerprint"])
                assert [s["scenario"] for s in scen] == \
                    ["ss_aged", "tt_typ"]

    def test_recipe_spends_edits(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            make_runner(small_spec(), store).run()
            by_recipe = {}
            for row in store.rows("small"):
                by_recipe.setdefault(row["levels"]["recipe"],
                                     row["eco_edits"])
            assert by_recipe["none"] == 0
            assert by_recipe["lvt_crit"] > 0


class TestResume:
    def test_second_run_resumes_everything(self, tmp_path):
        with CampaignStore(tmp_path / "c.db") as store:
            first = make_runner(small_spec(), store).run()
            assert len(first.computed) == 4
            second = make_runner(small_spec(), store).run()
            assert second.computed == []
            assert len(second.resumed) == 4
            assert store.count("small") == 4

    def test_partial_prefix_then_full(self, tmp_path):
        spec = small_spec()
        configs = spec.expand()
        with CampaignStore(tmp_path / "c.db") as store:
            make_runner(spec, store).run(configs=configs[:2])
            assert store.count("small") == 2
            outcome = make_runner(spec, store).run()
            assert len(outcome.resumed) == 2
            assert len(outcome.computed) == 2
            assert store.count("small") == 4


class TestDegradedPath:
    def test_failure_recorded_then_retried_on_resume(self, tmp_path,
                                                     monkeypatch):
        import repro.campaign.runner as runner_mod

        spec = small_spec()
        configs = spec.expand()
        real_job = runner_mod._run_config_job
        victim = configs[1].fingerprint

        def flaky(payload, attempt=1):
            config = payload[0]
            if config.fingerprint == victim:
                raise RuntimeError("injected worker crash")
            return real_job(payload, attempt)

        monkeypatch.setattr(runner_mod, "_run_config_job", flaky)
        with CampaignStore(tmp_path / "c.db") as store:
            outcome = make_runner(spec, store).run()
            assert not outcome.ok
            assert [fp for fp, _ in outcome.degraded] == [victim]
            assert len(outcome.computed) == 3
            failures = store.failures("small")
            assert len(failures) == 1
            assert "injected worker crash" in failures[0]["error"]
            # The failed config is not "done": resume retries it.
            monkeypatch.setattr(runner_mod, "_run_config_job", real_job)
            again = make_runner(spec, store).run()
            assert again.ok
            assert [fp for fp in again.computed] == [victim]
            assert store.count("small") == 4

    def test_failed_scenario_fails_the_config(self, tmp_path,
                                              monkeypatch):
        """A config whose aged scenario fails is a failure, not an ok
        row scored on the nominal scenario alone."""
        from repro.sta.mcmm import Scenario

        real_run = Scenario.run

        def aged_fails(scenario, design, stack):
            if scenario.name == "ss_aged":
                raise RuntimeError("injected scenario crash")
            return real_run(scenario, design, stack)

        monkeypatch.setattr(Scenario, "run", aged_fails)
        spec = small_spec()
        with CampaignStore(tmp_path / "c.db") as store:
            outcome = make_runner(
                spec, store,
                policy=RetryPolicy(retries=1, backoff_s=0.0),
            ).run(configs=spec.expand()[:1])
            assert outcome.computed == []
            assert len(outcome.degraded) == 1
            assert store.count("small") == 0
            (failure,) = store.failures("small")
            assert failure["attempts"] == 2
            assert "SignoffError" in failure["error"]

    def test_retry_policy_recovers_transients(self, tmp_path,
                                              monkeypatch):
        import repro.campaign.runner as runner_mod

        real_job = runner_mod._run_config_job
        calls = {}

        def flaky(payload, attempt=1):
            config = payload[0]
            calls[config.index] = calls.get(config.index, 0) + 1
            if calls[config.index] == 1:
                raise RuntimeError("transient")
            return real_job(payload, attempt)

        monkeypatch.setattr(runner_mod, "_run_config_job", flaky)
        spec = small_spec()
        with CampaignStore(tmp_path / "c.db") as store:
            outcome = make_runner(
                spec, store,
                policy=RetryPolicy(retries=1, backoff_s=0.0),
            ).run(configs=spec.expand()[:2])
            assert outcome.ok
            assert len(outcome.computed) == 2
            assert all(n == 2 for n in calls.values())


class TestTracing:
    def test_spans_ingested_under_waves(self, tmp_path):
        tracer = obs_tracing.Tracer()
        with CampaignStore(tmp_path / "c.db") as store:
            with obs_tracing.use(tracer):
                make_runner(small_spec(), store, chunk=2).run()
        names = [s.name for s in tracer.spans()]
        assert names.count("campaign") == 1
        assert names.count("campaign_wave") == 2  # 4 configs / chunk 2
        assert names.count("campaign_config") == 4
        assert "campaign_signoff" in names
        # Worker spans re-parent under their wave.
        by_id = {s.span_id: s for s in tracer.spans()}
        config_spans = [s for s in tracer.spans()
                        if s.name == "campaign_config"]
        for span in config_spans:
            assert by_id[span.parent_id].name == "campaign_wave"

    def test_untraced_run_records_nothing(self, tmp_path):
        spec = small_spec()
        with CampaignStore(tmp_path / "c.db") as store:
            outcome = make_runner(spec, store).run(
                configs=spec.expand()[:1])
            assert outcome.ok


class TestTriage:
    def test_budget_respected_and_predictions_recorded(self, tmp_path):
        spec = CampaignSpec(
            name="tri",
            factors=[
                Factor("period", (460.0, 480.0, 500.0)),
                Factor("recipe", ("none", "lvt_crit")),
                Factor("margin_ps", (0.0, 10.0)),
            ],
            seed=6,
        )  # 12 configs
        with CampaignStore(tmp_path / "c.db") as store:
            runner = make_runner(spec, store, chunk=4)
            outcome = runner.run_triaged(budget=0.5, train=0.3)
            assert len(outcome.ran) == outcome.budget == 6
            assert outcome.predicted == 12 - 6
            assert store.count("tri") == 6
            preds = store.predictions("tri")
            assert len(preds) == 6
            ran = set(outcome.ran)
            for pred in preds:
                assert pred["fingerprint"] not in ran
                assert "power_mw" in pred["metrics"]

    def test_triage_resume_counts_existing_rows(self, tmp_path):
        spec = small_spec(name="tri2")
        with CampaignStore(tmp_path / "c.db") as store:
            make_runner(spec, store).run()  # full sweep first
            outcome = make_runner(spec, store).run_triaged(
                budget=1.0, train=0.5)
            assert outcome.predicted == 0
            assert store.count("tri2") == 4
