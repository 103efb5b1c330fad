import dataclasses
import json
import math

import numpy as np
import pytest

from cmselect import (
    CmselectError,
    CorrelationFamily,
    DomainError,
    ExperimentConfig,
    ExperimentResult,
    MissingBaseline,
    StatisticKind,
    corrections_from,
    emit,
    null_patterns,
    run_mnrp,
    run_power,
    simulate_sample,
)
from cmselect.selection import KappaKind, KappaSchedule
from cmselect.streams import substream

INF = math.inf


def small_config(**overrides):
    base = dict(
        J=2,
        family=CorrelationFamily("Neg", 2),
        n=50,
        r_mc=200,
        b=150,
        procedures=("GMS", "CMS", "RSW"),
        statistics=(StatisticKind.MMM, StatisticKind.AQLR),
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSimulateSample:
    def test_zero_family_standard_normal(self):
        rng = substream(0, 5)
        sample = simulate_sample(CorrelationFamily("Zero", 2), (0.0, 0.0), 10**6, rng)
        se = 1.0 / np.sqrt(10**6)
        assert np.all(np.abs(sample.values.mean(axis=0)) < 3 * se)
        assert np.all(np.abs(sample.values.std(axis=0) - 1.0) < 0.01)

    def test_infinity_surrogate_realizes_the_mean(self):
        rng = substream(1, 5)
        sample = simulate_sample(
            CorrelationFamily("Zero", 2), (0.0, INF), 10**6, rng, infinity_surrogate=10.0
        )
        means = sample.values.mean(axis=0)
        se = 3.0 / np.sqrt(10**6)
        assert abs(means[0] - 0.0) < se
        assert abs(means[1] - 10.0) < se

    def test_positive_family_correlation(self):
        rng = substream(2, 5)
        sample = simulate_sample(CorrelationFamily("Pos", 2), (0.0, 0.0), 10**6, rng)
        corr = np.corrcoef(sample.values.T)[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)


class TestNullPatterns:
    def test_full_enumeration_counts(self):
        assert len(null_patterns(2)) == 3
        assert len(null_patterns(4)) == 15
        assert len(null_patterns(10, "full")) == 1023

    def test_default_subsample_for_large_j(self):
        patterns = null_patterns(10)
        assert len(patterns) == 21
        assert all(0.0 in p for p in patterns)
        assert patterns[0] == tuple(0.0 for _ in range(10))

    def test_every_pattern_has_a_binding_moment(self):
        for p in null_patterns(4):
            assert 0.0 in p


class TestConfigValidation:
    def test_rejects_mismatched_family(self):
        with pytest.raises(DomainError):
            ExperimentConfig(J=4, family=CorrelationFamily("Neg", 2), n=50, r_mc=10)

    def test_rejects_bad_null_pattern(self):
        with pytest.raises(DomainError):
            small_config(null_mu=((1.0, 0.0),))
        with pytest.raises(DomainError):
            small_config(null_mu=((INF, INF),))

    def test_rejects_rms_without_tables(self):
        with pytest.raises(DomainError):
            small_config(procedures=("RMS",))

    def test_beta_defaults_to_alpha_over_ten(self):
        assert small_config().beta_value == pytest.approx(0.005)

    def test_rejects_alpha_outside_domain(self):
        with pytest.raises(DomainError, match="alpha"):
            small_config(alpha=0.7)

    def test_rejects_beta_outside_domain(self):
        with pytest.raises(DomainError, match="beta"):
            small_config(alpha=0.05, beta=0.06)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_threads_below_one(self, threads):
        with pytest.raises(DomainError, match="threads"):
            small_config(threads=threads)

    @pytest.mark.parametrize("field", ["procedures", "statistics"])
    def test_rejects_empty_procedures_or_statistics(self, field):
        with pytest.raises(DomainError, match=field):
            small_config(**{field: ()})

    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_rejects_nonpositive_fixed_kappa_before_replicating(self, value, monkeypatch):
        import cmselect.harness

        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cmselect.harness, "_replicate", no_replication)
        with pytest.raises(DomainError, match="kappa"):
            run_mnrp(small_config(kappa=KappaSchedule(KappaKind.FIXED, value)))

    @pytest.mark.parametrize("surrogate", [-10.0, 0.0, INF, math.nan])
    def test_rejects_infinity_surrogate_not_positive_finite(self, surrogate):
        with pytest.raises(DomainError, match="infinity_surrogate"):
            small_config(infinity_surrogate=surrogate)

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_rejects_n_below_two(self, n):
        with pytest.raises(DomainError, match="n must be at least 2"):
            small_config(n=n)

    @pytest.mark.parametrize("phi", [0, 5, 6, 7, [1]])
    def test_rejects_phi_outside_one_to_four(self, phi):
        with pytest.raises(DomainError, match="phi"):
            small_config(phi=phi)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    @pytest.mark.parametrize("field", ["J", "n", "r_mc", "b", "seed", "threads", "phi"])
    def test_rejects_a_boolean_in_an_integer_field(self, field, flag):
        # True == 1 and hashes as 1, so a boolean would pass every range check.
        message = "phi must be one of" if field == "phi" else f"{field} must be an integer, not {flag!r}"
        with pytest.raises(DomainError, match=message):
            small_config(**{field: flag})

    def test_accepts_numpy_integers(self):
        integers = dict(J=np.int64(2), n=np.int32(50), r_mc=np.int64(200), b=np.int16(150), seed=np.uint32(7))
        config = small_config(**integers, threads=np.int8(1), phi=np.int64(2))
        assert (config.J, config.n, config.seed, config.phi) == (2, 50, 7, 2)

    def test_procedures_are_stored_by_their_canonical_names(self):
        config = small_config(procedures=("gms", "cms-fc", "Cms", "rsw"))
        assert config.procedures == ("GMS", "CMS_FC", "CMS", "RSW")
        assert small_config(procedures=("cms_fc", "RSW")) == small_config(procedures=("CMS_FC", "RSW"))

    @pytest.mark.parametrize("procedures", [("GMS", "gms"), ("cms-fc", "CMS_FC"), ("cms_fc", "cms-fc")])
    def test_a_spelling_and_its_canonical_name_are_a_repeat(self, procedures):
        with pytest.raises(DomainError, match="is listed twice"):
            small_config(procedures=procedures)

    def test_rejects_an_unknown_procedure(self):
        with pytest.raises(DomainError, match="unknown procedure 'boot'"):
            small_config(procedures=("GMS", "boot"))

    def test_statistics_are_stored_as_their_members(self):
        config = small_config(statistics=("MMM", "aqlr"))
        assert config.statistics == (StatisticKind.MMM, StatisticKind.AQLR)
        assert config == small_config()

    @pytest.mark.parametrize("statistics", [("mmm", "MMM"), (StatisticKind.AQLR, "Aqlr")])
    def test_a_statistic_spelling_and_its_member_are_a_repeat(self, statistics):
        with pytest.raises(DomainError, match="is listed twice"):
            small_config(statistics=statistics)

    def test_rejects_an_unknown_statistic(self):
        with pytest.raises(DomainError, match="unknown statistic 'qlr'"):
            small_config(statistics=("mmm", "qlr"))

    @pytest.mark.parametrize("pattern", [(-INF, 0.0), (0.0, -INF)])
    def test_rejects_minus_infinity_in_a_null_pattern(self, pattern):
        with pytest.raises(DomainError, match=r"0 and \+inf"):
            small_config(null_mu=(pattern,))


@pytest.fixture(scope="module")
def result():
    return run_mnrp(small_config())


class TestMnrpRun:
    def test_mnrp_is_max_over_patterns(self, result):
        for cell in result.cells.values():
            assert cell.mnrp == pytest.approx(cell.rates.max())
            assert cell.rates[cell.mnrp_pattern] == cell.mnrp

    def test_standard_errors(self, result):
        cell = result.cell("GMS", StatisticKind.MMM)
        expected = np.sqrt(cell.rates * (1 - cell.rates) / result.config.r_mc)
        assert np.allclose(cell.standard_errors, expected)

    def test_seed_determinism(self, result):
        again = run_mnrp(small_config())
        for key in result.cells:
            assert np.array_equal(
                result.cells[key].critical_values, again.cells[key].critical_values
            )
            assert np.array_equal(
                result.cells[key].statistic_values, again.cells[key].statistic_values
            )

    def test_thread_count_does_not_change_results(self, result):
        threaded = run_mnrp(small_config(threads=2))
        for key in result.cells:
            assert np.array_equal(
                result.cells[key].critical_values, threaded.cells[key].critical_values
            )

    def test_thread_count_does_not_change_j10_aqlr_results(self):
        config = small_config(
            J=10, family=CorrelationFamily("Neg", 10), n=100, r_mc=4, b=200,
            procedures=("GMS", "CMS", "CMS_FC", "RSW"), statistics=(StatisticKind.AQLR,),
            null_mu=null_patterns(10)[:3],
        )
        single = run_mnrp(config)
        threaded = run_mnrp(dataclasses.replace(config, threads=2))
        for key, cell in single.cells.items():
            assert cell.critical_values.tobytes() == threaded.cells[key].critical_values.tobytes()
            assert cell.statistic_values.tobytes() == threaded.cells[key].statistic_values.tobytes()

    def test_statistics_shared_across_procedures(self, result):
        gms = result.cell("GMS", StatisticKind.AQLR)
        cms = result.cell("CMS", StatisticKind.AQLR)
        assert np.array_equal(gms.statistic_values, cms.statistic_values)

    def test_corrections(self, result):
        deltas = corrections_from(result)
        for kind in (StatisticKind.MMM, StatisticKind.AQLR):
            p_rsw = result.cell("RSW", kind).mnrp
            for proc in ("GMS", "CMS"):
                delta = deltas[(proc, kind.value)]
                cell = result.cell(proc, kind)
                p_star = cell.mnrp_pattern
                exceed = cell.statistic_values[p_star] - cell.critical_values[p_star]
                corrected_rate = np.mean(exceed > delta)
                # definitional re-check: the corrected rate matches the
                # baseline MNRP up to one replication of slack
                assert abs(corrected_rate - p_rsw) <= 1.0 / result.config.r_mc + 1e-12
                if cell.mnrp > p_rsw:
                    assert delta > 0

    def test_corrections_need_an_mnrp_sweep(self, result):
        with pytest.raises(MissingBaseline, match="MNRP sweep"):
            corrections_from(dataclasses.replace(result, phase="power"))

    def test_correction_needs_baseline(self):
        result = run_mnrp(small_config(procedures=("GMS", "CMS")))
        with pytest.raises(MissingBaseline):
            corrections_from(result)


class TestPowerRun:
    def test_gms_and_cms_coincide_when_tilt_is_identity(self):
        # a strongly positive alternative never activates the tilt
        config = small_config(
            procedures=("GMS", "CMS"),
            alternative_mu=((5.0, 5.0),),
            r_mc=100,
        )
        corrections = {
            ("GMS", "mmm"): 0.0,
            ("GMS", "aqlr"): 0.0,
            ("CMS", "mmm"): 0.0,
            ("CMS", "aqlr"): 0.0,
        }
        result = run_power(config, corrections)
        for kind in config.statistics:
            assert np.array_equal(
                result.cell("GMS", kind).critical_values,
                result.cell("CMS", kind).critical_values,
            )

    def test_corrections_required(self):
        config = small_config(alternative_mu=((1.0, 1.0),), r_mc=50)
        with pytest.raises(MissingBaseline):
            run_power(config, {})

    def test_needs_alternatives(self):
        with pytest.raises(DomainError):
            run_power(small_config(), {})

    def test_zero_alternative_matches_corrected_size(self):
        config = small_config(alternative_mu=((0.0, 0.0),), r_mc=400, b=150)
        mnrp = run_mnrp(config)
        corrections = corrections_from(mnrp)
        power = run_power(config, corrections)
        for kind in config.statistics:
            p_rsw = mnrp.cell("RSW", kind).mnrp
            for proc in ("GMS", "CMS"):
                rate = power.cell(proc, kind).rates[0]
                se = np.sqrt(max(p_rsw * (1 - p_rsw), 0.01) / config.r_mc)
                assert abs(rate - p_rsw) <= 4 * se

    def test_retained_critical_values(self, tmp_path):
        config = small_config(
            alternative_mu=((1.0, 1.0),), r_mc=60, retain_critical_values=True,
            procedures=("GMS", "CMS", "RSW"),
        )
        mnrp = run_mnrp(config)
        result = run_power(config, corrections_from(mnrp))
        for phase, run in (("mnrp", mnrp), ("power", result)):
            emit(run, "json", tmp_path / f"{phase}.json")
        power = json.loads((tmp_path / "power.json").read_text())["cells"]
        for (proc, kind), cell in result.cells.items():
            assert cell.critical_values.shape == (1, 60)
            assert power[f"{proc}-{kind}"]["critical_value_samples"] == cell.critical_values.ravel().tolist()
        # Only the power phase retains them.
        mnrp_cells = json.loads((tmp_path / "mnrp.json").read_text())["cells"]
        assert not any("critical_value_samples" in entry for entry in mnrp_cells.values())


def _power_config(**overrides):
    return small_config(alternative_mu=((-1.0, 1.0), (1.0, 1.0)), **overrides)


class TestResamplingCounts:
    """Every pattern of a replication resamples with the replication's one
    set of counts, drawn once per replication and phase."""

    @pytest.fixture
    def events(self, monkeypatch):
        import cmselect.harness

        events = []
        draw_counts, build_draws = cmselect.harness.bootstrap_counts, cmselect.harness.BootstrapDraws

        def recording_counts(*args):
            counts = draw_counts(*args)
            events.append(("counts", counts))
            return counts

        def recording_draws(sample, summary, counts):
            events.append(("draws", counts))
            return build_draws(sample, summary, counts)

        monkeypatch.setattr(cmselect.harness, "bootstrap_counts", recording_counts)
        monkeypatch.setattr(cmselect.harness, "BootstrapDraws", recording_draws)
        return events

    def test_one_counts_draw_per_replication_shared_by_every_pattern(self, events):
        config = small_config(r_mc=4, b=100)
        result = run_mnrp(config)
        patterns = len(result.patterns)
        assert patterns == 3
        assert [kind for kind, _ in events] == (["counts"] + ["draws"] * patterns) * config.r_mc
        for rep in range(config.r_mc):
            (_, counts), *per_pattern = events[rep * (patterns + 1) : (rep + 1) * (patterns + 1)]
            assert all(used is counts for _, used in per_pattern)
        drawn = [counts for kind, counts in events if kind == "counts"]
        assert not any(np.array_equal(drawn[0], other) for other in drawn[1:])

    def test_power_run_draws_counts_once_per_replication(self, events):
        config = _power_config(r_mc=3, b=100, procedures=("GMS", "RSW"))
        corrections = {("GMS", "mmm"): 0.0, ("GMS", "aqlr"): 0.0}
        run_power(config, corrections)
        assert sum(kind == "counts" for kind, _ in events) == config.r_mc
        assert sum(kind == "draws" for kind, _ in events) == 2 * config.r_mc

    def test_failed_counts_draw_names_the_replication(self, monkeypatch):
        import cmselect.harness

        def failing_counts(*args):
            raise MemoryError("no room for the counts")

        monkeypatch.setattr(cmselect.harness, "bootstrap_counts", failing_counts)
        with pytest.raises(CmselectError, match=r"^replication failed at replication 0: no room"):
            run_mnrp(small_config(r_mc=2, b=100))


@pytest.fixture(scope="module", params=[1, 4, 5], ids=lambda r_mc: f"r_mc={r_mc}")
def single_threaded(request):
    config = _power_config(r_mc=request.param, b=100)
    mnrp = run_mnrp(config)
    return config, (mnrp, run_power(config, corrections_from(mnrp)))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_thread_count_gives_equal_bytes(single_threaded, threads):
    # r_mc = 4 and 5 are not multiples of every thread count.
    reference_config, references = single_threaded
    config = dataclasses.replace(reference_config, threads=threads)
    mnrp = run_mnrp(config)
    runs = (mnrp, run_power(config, corrections_from(mnrp)))
    for reference, run in zip(references, runs):
        assert run.cells.keys() == reference.cells.keys()
        for key, cell in run.cells.items():
            expected = reference.cells[key]
            for name in ("statistic_values", "critical_values", "rejections", "rates", "standard_errors"):
                assert getattr(cell, name).tobytes() == getattr(expected, name).tobytes(), (key, name)
            assert (cell.mnrp, cell.mnrp_pattern, cell.correction) == (
                expected.mnrp, expected.mnrp_pattern, expected.correction
            )
        assert json.dumps(run.diagnostics) == json.dumps(reference.diagnostics)


class TestOtherProcedures:
    def test_fully_constrained_variant_runs(self):
        config = small_config(procedures=("GMS", "CMS", "CMS_FC"), r_mc=40)
        result = run_mnrp(config)
        cell = result.cell("CMS_FC", StatisticKind.MMM)
        assert cell.rates.shape == (3,)
        assert 0.0 <= cell.mnrp <= 1.0

    def test_rms_with_tables(self):
        from cmselect import RmsTables

        tables = RmsTables(
            delta_grid=(-1.0, 1.0),
            kappa_values=(2.0, 2.0),
            eta1_values=(0.01, 0.01),
            eta2_by_j={2: 0.02},
        )
        config = small_config(procedures=("GMS", "RMS"), r_mc=40, rms_tables=tables)
        result = run_mnrp(config)
        assert ("RMS", "mmm") in result.cells

    def test_ten_moment_design_smoke(self):
        config = ExperimentConfig(
            J=10,
            family=CorrelationFamily("Pos", 10),
            n=50,
            r_mc=4,
            b=120,
            procedures=("GMS", "CMS"),
            statistics=(StatisticKind.AQLR,),
            seed=2,
        )
        result = run_mnrp(config)
        assert len(result.patterns) == 21
        assert result.cell("CMS", StatisticKind.AQLR).rates.shape == (21,)


class TestReplay:
    def test_single_dataset_path_reproduces_harness_decisions(self, tmp_path):
        # Re-derive a replication's sample and bootstrap stream, push it
        # through the CSV loader and the public decision entry point, and
        # demand the recorded statistic, critical values and decisions to the
        # bit, for every procedure.
        from cmselect import RmsTables
        from cmselect.critical import PROCEDURES
        from cmselect.moments import cholesky_factor, make_toeplitz

        tables = RmsTables(
            delta_grid=(-1.0, 1.0),
            kappa_values=(1.5, 2.5),
            eta1_values=(0.01, 0.03),
            eta2_by_j={2: 0.02},
        )
        result = run_mnrp(small_config(procedures=PROCEDURES, rms_tables=tables, r_mc=13))
        config = result.config
        chol = cholesky_factor(make_toeplitz(config.family))
        # (0, 12) rejects under every procedure, RSW through its first stage,
        # and its tilt moves the CMS selection away from the GMS one.
        assert all(cell.rejections[0, 12] for cell in result.cells.values())
        for kind in config.statistics:
            assert result.cell("CMS", kind).critical_values[0, 12] != (
                result.cell("GMS", kind).critical_values[0, 12]
            )
        # (1, 12) replays a second pattern of replication 12 on the same
        # counts stream: the replication's patterns resample with one set of
        # counts.
        for pattern_idx, rep_idx in ((1, 7), (0, 12), (1, 12)):
            self.replay(tmp_path, result, tables, chol, pattern_idx, rep_idx)

    def replay(self, tmp_path, result, tables, chol, pattern_idx, rep_idx):
        from cmselect import load_csv, run_test
        from cmselect.critical import MODE_BOOTSTRAP, PROCEDURE_ALIASES
        from cmselect.harness import PHASE_NULL
        from cmselect.streams import BOOTSTRAP, SAMPLE_DRAW

        config = result.config
        rng = substream(config.seed, PHASE_NULL, pattern_idx, rep_idx, SAMPLE_DRAW)
        sample = simulate_sample(
            config.family,
            result.patterns[pattern_idx],
            config.n,
            rng,
            config.infinity_surrogate,
            chol=chol,
        )
        csv_path = tmp_path / "replayed.csv"
        csv_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in sample.values) + "\n"
        )
        loaded = load_csv(csv_path)
        assert np.array_equal(loaded.values, sample.values)

        for alias, proc in PROCEDURE_ALIASES.items():
            for kind in config.statistics:
                decision = run_test(
                    loaded,
                    kind,
                    alias,
                    schedule=config.kappa,
                    mode=MODE_BOOTSTRAP,
                    alpha=config.alpha,
                    n_draws=config.b,
                    rms_tables=tables,
                    rng=substream(config.seed, PHASE_NULL, rep_idx, BOOTSTRAP),
                )
                cell = result.cell(proc, kind)
                assert decision.statistic == cell.statistic_values[pattern_idx, rep_idx]
                assert decision.critical_value.value == cell.critical_values[pattern_idx, rep_idx]
                assert decision.reject == cell.rejections[pattern_idx, rep_idx]


class TestEmit:
    def test_no_cells_gives_header_only_csv(self, tmp_path):
        result = ExperimentResult(config=small_config(), phase="mnrp", patterns=(), cells={})
        path = tmp_path / "out.csv"
        emit(result, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["procedure,statistic,J,family,n,mu,rate,se,delta"]

    def test_csv_shape(self, tmp_path):
        result = run_mnrp(small_config(r_mc=20, b=100, procedures=("GMS", "CMS")))
        path = tmp_path / "table.csv"
        emit(result, "csv", path)
        lines = path.read_text().strip().splitlines()
        # header + (procedures x statistics x patterns)
        assert len(lines) == 1 + 2 * 2 * 3
        assert lines[1].startswith("CMS,aqlr,2,Neg,50")

    def test_json_round_trip_with_ecdf_samples(self, tmp_path):
        config = small_config(
            alternative_mu=((1.0, 1.0),),
            r_mc=30,
            retain_critical_values=True,
        )
        corrections = corrections_from(run_mnrp(config))
        result = run_power(config, corrections)
        path = tmp_path / "power.json"
        emit(result, "json", path)
        payload = json.loads(path.read_text())
        assert payload["phase"] == "power"
        samples = payload["cells"]["GMS-mmm"]["critical_value_samples"]
        assert len(samples) == 30
        assert payload["cells"]["GMS-mmm"]["correction"] == pytest.approx(
            corrections[("GMS", "mmm")]
        )

    def test_unknown_format(self, tmp_path):
        result = ExperimentResult(config=small_config(), phase="mnrp", patterns=(), cells={})
        with pytest.raises(DomainError):
            emit(result, "parquet", tmp_path / "x")
