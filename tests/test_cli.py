import functools
import inspect
import json
import math

import numpy as np
import pytest

from cmselect import StatisticKind, load_csv, run_test
from cmselect.cli import build_parser, load_config, main
from cmselect.critical import mode_name, procedure_name, seeded_counts
from cmselect.selection import DEFAULT_KAPPA, KappaSchedule


def write_sample(path, values):
    rows = "\n".join(",".join(f"{v}" for v in row) for row in values)
    path.write_text(rows + "\n")


@pytest.fixture
def positive_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "positive.csv"
    write_sample(path, rng.standard_normal((40, 2)) * 0.2 + 3.0)
    return path


@pytest.fixture
def violated_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "violated.csv"
    write_sample(path, rng.standard_normal((40, 2)) - 1.5)
    return path


class TestCmdTest:
    def test_accepts_positive_means(self, positive_csv, capsys):
        code = main(
            ["test", str(positive_csv), "--procedure", "cms", "--statistic", "mmm",
             "--draws", "200", "--seed", "3"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["statistic"] == 0.0
        assert payload["reject"] is False

    def test_rejects_strong_violation(self, violated_csv, capsys):
        code = main(
            ["test", str(violated_csv), "--procedure", "gms", "--statistic", "aqlr",
             "--draws", "200", "--seed", "3"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["reject"] is True

    def test_infeasible_tilt_reports_fallback(self, tmp_path, capsys):
        path = tmp_path / "infeasible.csv"
        write_sample(path, np.array([[-2.0], [-1.0], [-1.4], [-0.7]]))
        code = main(
            ["test", str(path), "--procedure", "cms", "--statistic", "mmm",
             "--mode", "asym", "--draws", "200"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["extras"]["tilt"]["status"] == "Infeasible"
        assert payload["critical_value"]["tilt_fallback"] is True

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,nope\n")
        code = main(["test", str(path)])
        assert code == 2
        assert "row 2" in capsys.readouterr().err
        # --threads belongs to simulate only, and --phi takes 1 to 4; test
        # and invert refuse both
        for command in ("test", "invert"):
            for flag, value in (("--threads", "2"), ("--phi", "5")):
                with pytest.raises(SystemExit) as exit_info:
                    main([command, str(path), flag, value])
                assert exit_info.value.code == 2
        assert "invalid choice: 5 (choose from 1, 2, 3, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "invert"])
    def test_negative_seed_is_refused_at_parse_time(self, positive_csv, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(positive_csv), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("procedure, mode", [("GMS", "boot"), ("cms_fc", "ASYM"), ("CMS-FC", "Bootstrap")])
    def test_every_procedure_and_mode_spelling(self, violated_csv, capsys, procedure, mode):
        code = main(["test", str(violated_csv), "--draws", "200", "--procedure", procedure, "--mode", mode])
        decision = run_test(
            load_csv(violated_csv), StatisticKind.AQLR, procedure_name(procedure), mode=mode_name(mode), n_draws=200
        )
        assert capsys.readouterr().out == json.dumps(decision.to_dict(), indent=2) + "\n"
        assert code == int(decision.reject)

    @pytest.mark.parametrize("statistic", ["MMM", "Aqlr"])
    def test_every_statistic_spelling(self, violated_csv, capsys, statistic):
        code = main(["test", str(violated_csv), "--draws", "200", "--procedure", "gms", "--statistic", statistic])
        decision = run_test(load_csv(violated_csv), StatisticKind(statistic.lower()), "GMS", n_draws=200)
        assert capsys.readouterr().out == json.dumps(decision.to_dict(), indent=2) + "\n"
        assert code == int(decision.reject)

    @pytest.mark.parametrize(
        "flag, value", [("--procedure", "cms fc"), ("--mode", "gms"), ("--statistic", "qlr")]
    )
    def test_unknown_spelling_exits_two(self, positive_csv, capsys, flag, value):
        assert main(["test", str(positive_csv), flag, value]) == 2
        assert capsys.readouterr().err == f"error: unknown {flag[2:]} {value!r}\n"

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["test", str(tmp_path / "nope.csv")]) == 2

    def test_output_flag_writes_the_decision(self, positive_csv, tmp_path, capsys):
        out = tmp_path / "decision.json"
        main(["test", str(positive_csv), "--draws", "200", "--output", str(out)])
        printed = capsys.readouterr().out
        assert json.loads(out.read_text()) == json.loads(printed)

    def test_determinism(self, violated_csv, capsys):
        args = ["test", str(violated_csv), "--draws", "300", "--seed", "11"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_rms_procedure_with_tables(self, violated_csv, tmp_path, capsys):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps({
            "delta_grid": [-1.0, 1.0],
            "kappa": [2.0, 2.0],
            "eta1": [0.0, 0.0],
            "eta2_by_J": {"2": 0.05},
        }))
        code = main(
            ["test", str(violated_csv), "--procedure", "rms", "--rms-tables", str(tables),
             "--draws", "200", "--seed", "5"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["critical_value"]["method"] == "RMS"
        assert payload["critical_value"]["supplementary"]["eta_hat"] == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "tables, fragment",
        [
            pytest.param({"delta_grid": 5}, "key 'delta_grid' must be a JSON array", id="grid-number"),
            pytest.param({"kappa": None}, "key 'kappa' must be a JSON array", id="kappa-null"),
            pytest.param([1.0, 2.0], "RMS tables must be a JSON object", id="top-level-array"),
            pytest.param({"eta2_by_J": []}, "key 'eta2_by_J' must be a JSON object", id="eta2-array"),
            pytest.param({"eta2_by_J": {"two": 0.05}}, "key 'eta2_by_J'", id="eta2-key-not-a-number"),
            pytest.param({"eta1": [0.0, "x"]}, "key 'eta1'", id="eta1-not-a-number"),
            pytest.param({"delta_grid": [0.0, "nan"]}, "key 'delta_grid' has an entry that is not finite", id="grid-nan"),
            pytest.param({"kappa": [2.0, "inf"]}, "key 'kappa' has an entry that is not finite", id="kappa-inf"),
            pytest.param({"kappa": [0.0, 0.0]}, "nonpositive threshold", id="kappa-nonpositive"),
            pytest.param({"kappa": [2.0]}, "share one grid length", id="unequal-lengths"),
            pytest.param({"delta_grid": [], "kappa": [], "eta1": []}, "RMS tables are empty", id="no-entries"),
            pytest.param({"delta_grid": [1.0, -1.0]}, "delta grid must be sorted", id="unsorted-grid"),
            pytest.param({"kappa": [True, True]}, "key 'kappa': expected a number, got True", id="kappa-bool"),
            pytest.param({"eta2_by_J": {"2": False}}, "key 'eta2_by_J': expected a number, got False", id="eta2-bool"),
        ],
    )
    def test_malformed_rms_tables_exit_two(self, violated_csv, tmp_path, capsys, tables, fragment):
        good = {"delta_grid": [-1.0, 1.0], "kappa": [2.0, 2.0], "eta1": [0.0, 0.0], "eta2_by_J": {"2": 0.05}}
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(good | tables if isinstance(tables, dict) else tables))
        args = ["test", str(violated_csv), "--procedure", "rms", "--rms-tables", str(path), "--draws", "200"]
        assert main(args) == 2
        assert fragment in capsys.readouterr().err
        if fragment != "nonpositive threshold":
            # A config naming the file refuses it before anything runs.
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"J": 2, "n": 50, "procedures": ["RMS"], "rms_tables": path.name}))
            assert main(["simulate", str(config), "--dry-run"]) == 2
            assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "invert"])
    @pytest.mark.parametrize("procedure", ["gms", "rms"])
    def test_an_empty_rms_tables_flag_is_refused(self, violated_csv, capsys, command, procedure):
        # An empty name names no file; it is not the same as leaving the flag out.
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(violated_csv), "--procedure", procedure, "--rms-tables", "", "--draws", "200"])
        assert exit_info.value.code == 2
        assert "argument --rms-tables: expected a file name, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize("procedure", ["gms", "cms", "rsw"])
    @pytest.mark.parametrize("beta", ["7", "0.05", "0"])
    def test_beta_outside_its_domain_exits_two_for_every_procedure(self, violated_csv, capsys, procedure, beta):
        args = ["test", str(violated_csv), "--procedure", procedure, "--beta", beta, "--draws", "200"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: beta must lie in (0, alpha)\n"

    @pytest.mark.parametrize("command", ["test", "invert"])
    def test_a_fixed_kappa_without_a_number_exits_two(self, violated_csv, capsys, command):
        assert main([command, str(violated_csv), "--kappa", "fixed:abc", "--draws", "200"]) == 2
        assert capsys.readouterr().err == "error: kappa schedule 'fixed:abc' needs a number after 'fixed:'\n"

    def test_rms_without_tables_errors(self, violated_csv, capsys):
        code = main(["test", str(violated_csv), "--procedure", "rms", "--draws", "200"])
        assert code == 2
        assert "tables" in capsys.readouterr().err


class TestCmdInvert:
    def make_grid(self, tmp_path, shifts):
        paths = []
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((40, 2))
        for i, shift in enumerate(shifts):
            path = tmp_path / f"theta_{i}.csv"
            write_sample(path, noise + shift)
            paths.append(str(path))
        return paths

    def test_all_positive_grid_accepted(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, [2.0, 3.0, 4.0])
        code = main(["invert", *paths, "--draws", "200", "--statistic", "mmm"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["confidence_set"] == ["theta_0", "theta_1", "theta_2"]

    def test_single_point_matches_cmd_test(self, tmp_path, capsys):
        [path] = self.make_grid(tmp_path, [-0.4])
        main(["invert", path, "--draws", "200", "--seed", "7"])
        inverted = json.loads(capsys.readouterr().out)["points"][0]
        main(["test", path, "--draws", "200", "--seed", "7"])
        tested = json.loads(capsys.readouterr().out)
        assert inverted["reject"] == tested["reject"]
        assert inverted["statistic"] == tested["statistic"]
        assert inverted["critical_value"] == tested["critical_value"]["value"]

    def test_confidence_set_shrinks_with_alpha(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, np.linspace(-0.6, 0.3, 10))
        accepted = {}
        for alpha in (0.05, 0.10):
            main(["invert", *paths, "--draws", "400", "--seed", "2", "--alpha", str(alpha)])
            accepted[alpha] = set(json.loads(capsys.readouterr().out)["confidence_set"])
        # larger alpha -> smaller critical values -> fewer accepted points
        assert accepted[0.10] <= accepted[0.05]

    def test_manifest_grid(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, [1.0, 2.0])
        manifest = tmp_path / "grid.csv"
        manifest.write_text(
            "theta_id,path\na,{}\nb,{}\n".format(
                paths[0].split("/")[-1], paths[1].split("/")[-1]
            )
        )
        code = main(["invert", "--grid", str(manifest), "--draws", "200", "--statistic", "mmm"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [p["theta_id"] for p in payload["points"]] == ["a", "b"]

    def test_manifest_with_a_byte_order_mark(self, tmp_path, capsys):
        # A spreadsheet may save the manifest with a UTF-8 byte-order mark.
        [path] = self.make_grid(tmp_path, [1.0])
        manifest = tmp_path / "grid.csv"
        manifest.write_bytes("\ufefftheta_id,path\na,{}\n".format(path.split("/")[-1]).encode("utf-8"))
        assert main(["invert", "--grid", str(manifest), "--draws", "200", "--statistic", "mmm"]) == 0
        assert [p["theta_id"] for p in json.loads(capsys.readouterr().out)["points"]] == ["a"]

    def test_manifest_row_without_a_path_cell_exits_two(self, tmp_path, capsys):
        [path] = self.make_grid(tmp_path, [1.0])
        manifest = tmp_path / "grid.csv"
        manifest.write_text("theta_id,path\na,{}\nt0\n".format(path.split("/")[-1]))
        assert main(["invert", "--grid", str(manifest), "--draws", "200"]) == 2
        assert capsys.readouterr().err == "error: grid manifest line 3: no path cell\n"

    def test_manifest_row_with_extra_cells_exits_two(self, tmp_path, capsys):
        # csv.DictReader files the cells beyond the header under the key None;
        # they are reported, not dropped, and no point runs.
        [path] = self.make_grid(tmp_path, [1.0])
        manifest = tmp_path / "grid.csv"
        manifest.write_text("theta_id,path\na,{},junk\n".format(path.split("/")[-1]))
        assert main(["invert", "--grid", str(manifest), "--draws", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid manifest line 2: extra cells 'junk'\n"
        assert captured.out == ""

    def test_mismatched_width_aborts(self, tmp_path, capsys):
        path_a = tmp_path / "a.csv"
        write_sample(path_a, np.ones((5, 2)))
        path_b = tmp_path / "b.csv"
        write_sample(path_b, np.ones((5, 3)))
        assert main(["invert", str(path_a), str(path_b), "--draws", "200"]) == 2

    def test_failed_point_is_listed_and_exits_two(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, [1.0, 2.0, 3.0])
        constant = np.random.default_rng(6).standard_normal((40, 2))
        constant[:, 1] = 0.5
        write_sample(tmp_path / "theta_1.csv", constant)
        code = main(["invert", *paths, "--draws", "200", "--statistic", "mmm"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 2
        assert payload["confidence_set"] == ["theta_0", "theta_2"]
        failed = payload["points"][1]
        assert failed["theta_id"] == "theta_1" and set(failed) == {"theta_id", "error"}
        assert "zero sample variance" in failed["error"]
        assert captured.err.startswith("error: point theta_1: ")

    def test_missing_file_is_listed_and_exits_two(self, tmp_path, capsys):
        [path] = self.make_grid(tmp_path, [1.0])
        missing = str(tmp_path / "absent.csv")
        code = main(["invert", path, missing, "--draws", "200", "--statistic", "mmm"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 2
        assert [p["theta_id"] for p in payload["points"]] == ["theta_0", "absent"]
        assert "error" not in payload["points"][0]
        assert "error" in payload["points"][1]
        assert payload["confidence_set"] == ["theta_0"]
        assert captured.err.startswith("error: point absent: ")

    def test_file_that_is_not_utf8_is_listed_and_exits_two(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, [1.0, 2.0])
        undecodable = tmp_path / "latin.csv"
        undecodable.write_bytes(b"1.0,2.0\n3.0,4.0\n5.0,\xff\n")
        code = main(["invert", paths[0], str(undecodable), paths[1], "--draws", "200", "--statistic", "mmm"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 2
        assert [p["theta_id"] for p in payload["points"]] == ["theta_0", "latin", "theta_1"]
        assert payload["points"][1] == {"theta_id": "latin", "error": "not UTF-8: byte 0xff at offset 20"}
        assert payload["confidence_set"] == ["theta_0", "theta_1"]
        assert captured.err.startswith("error: point latin: ")

    def test_cached_counts_match_a_fresh_build_at_every_point(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        paths = []
        for i, n in enumerate((120, 150, 120, 150)):
            path = tmp_path / f"p{i}.csv"
            write_sample(path, rng.standard_normal((n, 2)) * 0.5 + 0.1 * i)
            paths.append(path)
        for draws in (200, 300, 200):
            assert main(["invert", *map(str, paths), "--draws", str(draws), "--seed", "5"]) == 0
            listing = json.loads(capsys.readouterr().out)["points"]
            for path, entry in zip(paths, listing):
                seeded_counts.cache_clear()
                fresh = run_test(load_csv(path), StatisticKind.AQLR, "cms", n_draws=draws, seed=5)
                assert entry["critical_value"] == fresh.critical_value.value
                assert entry["statistic"] == fresh.statistic
                assert entry["reject"] == fresh.reject

    @pytest.mark.parametrize(
        "manifest, message",
        [
            (None, "no grid points supplied"),
            ("theta_id,path\n", "no grid points supplied"),
            ("id,file\na,theta_0.csv\n", "grid manifest needs columns theta_id,path"),
            ("theta_id\na\n", "grid manifest needs columns theta_id,path"),
            ("", "grid manifest needs columns theta_id,path"),
        ],
        ids=["no-points", "empty-manifest", "other-columns", "no-path-column", "no-header"],
    )
    def test_no_points_or_a_manifest_without_its_columns_exits_two(self, tmp_path, capsys, manifest, message):
        args = ["invert", "--draws", "200"]
        if manifest is not None:
            self.make_grid(tmp_path, [1.0])
            (tmp_path / "grid.csv").write_text(manifest)
            args += ["--grid", str(tmp_path / "grid.csv")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_output_flag_writes_the_listing(self, tmp_path, capsys):
        paths = self.make_grid(tmp_path, [-0.4, 1.0])
        out = tmp_path / "listing.json"
        assert main(["invert", *paths, "--draws", "200", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        assert [p["theta_id"] for p in json.loads(printed)["points"]] == ["theta_0", "theta_1"]

    def test_duplicate_ids_rejected(self, tmp_path):
        [path] = self.make_grid(tmp_path, [1.0])
        assert main(["invert", path, path]) == 2


@pytest.fixture
def sim_config(tmp_path):
    config = {
        "J": 2,
        "family": "Neg",
        "n": 50,
        "alpha": 0.05,
        "procedures": ["GMS", "CMS"],
        "statistics": ["mmm"],
        "seed": 4,
        "run": ["mnrp"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestCmdSimulate:
    def test_dry_run_echoes_config(self, sim_config, capsys):
        code = main(["simulate", str(sim_config), "--desk-scale", "--dry-run"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["r_mc"] == 2000
        assert payload["b"] == 1000
        assert payload["null_patterns"] == 3

    def test_dry_run_echoes_the_json_outputs_config(self, sim_config, tmp_path, capsys):
        flags = ["--r-mc", "4", "--b", "100", "--seed", "7"]
        assert main(["simulate", str(sim_config), *flags, "--dry-run"]) == 0
        echo = json.loads(capsys.readouterr().out)
        out = tmp_path / "echoed"
        assert main(["simulate", str(sim_config), *flags, "--output", str(out), "--format", "json"]) == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "echoed_mnrp.json").read_text())["config"]
        extras = {"null_patterns": 3, "alternatives": 0, "phases": ["mnrp"], "threads": 1}
        assert echo == config | extras
        assert list(echo) == [*config, *extras]

    @pytest.mark.parametrize("spelling, echoed", [("fixed:2", "fixed:2.0"), ("sqrt-2loglogn", "sqrt-2loglogn")])
    def test_dry_run_echoes_the_kappa_schedule(self, sim_config, capsys, spelling, echoed):
        sim_config.write_text(json.dumps(json.loads(sim_config.read_text()) | {"kappa": spelling}))
        assert main(["simulate", str(sim_config), "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == echoed

    def test_spelled_procedures_run_as_their_canonical_names(self, sim_config, tmp_path, capsys):
        written = {}
        for name, procedures in (("canonical", ["GMS", "CMS_FC"]), ("spelled", ["gms", "cms-fc"])):
            config = json.loads(sim_config.read_text()) | {"procedures": procedures}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", str(path), "--r-mc", "4", "--b", "100", "--output", str(tmp_path / name),
                         "--format", "json"]) == 0
            written[name] = (tmp_path / f"{name}_mnrp.json").read_text()
        capsys.readouterr()
        assert written["spelled"] == written["canonical"]

    def test_spelled_statistics_run_as_their_members(self, sim_config, tmp_path, capsys):
        written = {}
        for name, statistics in (("canonical", ["mmm", "aqlr"]), ("spelled", ["MMM", "Aqlr"])):
            config = json.loads(sim_config.read_text()) | {"statistics": statistics}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", str(path), "--r-mc", "4", "--b", "100", "--output", str(tmp_path / name),
                         "--format", "json"]) == 0
            written[name] = (tmp_path / f"{name}_mnrp.json").read_text()
        capsys.readouterr()
        assert written["spelled"] == written["canonical"]

    def test_dry_run_refuses_a_family_that_is_not_positive_definite(self, tmp_path, capsys):
        path = tmp_path / "not_pd.json"
        path.write_text(json.dumps({"J": 3, "family": {"kind": "Custom", "rho": [0.99, -0.99]}, "n": 50}))
        for flags in (["--dry-run"], ["--r-mc", "2", "--b", "100", "--output", str(tmp_path / "out")]):
            assert main(["simulate", str(path), *flags]) == 2
            assert capsys.readouterr().err == "error: Toeplitz matrix for Custom, J=3 is not PD\n"

    @pytest.mark.parametrize("key", ["J", "n"])
    def test_missing_required_key_is_named(self, tmp_path, capsys, key):
        config = {"J": 2, "family": "Neg", "n": 50}
        del config[key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", str(path), "--dry-run"]) == 2
        assert capsys.readouterr().err == f"error: missing config key {key!r}\n"

    def test_run_writes_outputs_and_is_deterministic(self, sim_config, tmp_path, capsys):
        out = tmp_path / "exp"
        args = [
            "simulate", str(sim_config), "--r-mc", "40", "--b", "100",
            "--output", str(out), "--format", "csv",
        ]
        assert main(args) == 0
        capsys.readouterr()
        first = (tmp_path / "exp_mnrp.csv").read_text()
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "exp_mnrp.csv").read_text() == first
        header = first.splitlines()[0]
        assert header == "procedure,statistic,J,family,n,mu,rate,se,delta"

    def test_power_phase_requires_alternatives_config(self, tmp_path, capsys):
        config = {
            "J": 2,
            "family": "Pos",
            "n": 50,
            "procedures": ["GMS", "CMS", "RSW"],
            "statistics": ["mmm"],
            "alternatives": [[-1.0, 1.0]],
            "run": ["mnrp", "power"],
            "seed": 1,
        }
        path = tmp_path / "power.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "powerout"
        code = main(
            ["simulate", str(path), "--r-mc", "30", "--b", "100",
             "--output", str(out), "--format", "json"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "powerout_power.json").read_text())
        assert payload["phase"] == "power"
        assert "GMS-mmm" in payload["cells"]

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"J": 2, "family": "Zero", "n": 50, "procedure": ["RSW"]}))
        assert main(["simulate", str(path)]) == 2
        assert "'procedure'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            pytest.param({"alpha": 0.7}, "must lie in", id="alpha"),
            pytest.param({"alpha": 0.05, "beta": 0.06}, "must lie in", id="beta-above-alpha"),
            pytest.param({"beta": "0.06"}, "must lie in", id="beta-string"),
            pytest.param({"threads": 0}, "threads must be at least 1", id="threads-zero"),
            pytest.param({"threads": -3}, "threads must be at least 1", id="threads-negative"),
            pytest.param({"infinity_surrogate": -10}, "positive and finite", id="surrogate-negative"),
            pytest.param({"infinity_surrogate": 0}, "positive and finite", id="surrogate-zero"),
            pytest.param({"run": ["power"]}, "at least one alternative", id="power-without-alternatives"),
            pytest.param({"statistics": []}, "at least one statistic", id="statistics-empty"),
            pytest.param({"procedures": []}, "at least one procedure", id="procedures-empty"),
            pytest.param({"null_patterns": []}, "null_patterns must list", id="null-patterns-empty"),
            pytest.param({"null_patterns": 3}, "null_patterns must list", id="null-patterns-number"),
            pytest.param({"alternatives": 5}, "alternatives must list", id="alternatives-number"),
            pytest.param(
                {"procedures": ["GMS", "CMS"], "alternatives": [[-1, 1]], "run": ["mnrp", "power"]},
                "add RSW to procedures",
                id="power-without-rsw",
            ),
            pytest.param({"n": None}, "config key 'n'", id="n-null"),
            pytest.param({"procedures": 5}, "config key 'procedures'", id="procedures-number"),
            pytest.param({"alpha": [1]}, "config key 'alpha'", id="alpha-list"),
            pytest.param({"kappa": 3}, "unknown kappa schedule", id="kappa-number"),
            pytest.param({"threads": None}, "config key 'threads'", id="threads-null"),
            pytest.param({"rms_tables": 5}, "config key 'rms_tables'", id="rms-tables-number"),
            pytest.param({"retain_critical_values": "no"}, "config key 'retain_critical_values'", id="retain-string"),
            pytest.param({"r_mc": 2.7}, "config key 'r_mc'", id="r-mc-fractional"),
            pytest.param({"run": []}, "run must be a non-empty list", id="run-empty"),
            pytest.param({"run": "mnrp"}, "run must be a non-empty list", id="run-string"),
            pytest.param({"null_patterns": [["-inf", 0]]}, "only contain 0 and +inf", id="null-pattern-minus-inf"),
            pytest.param(
                {"null_patterns": [[0, -math.inf]]}, "only contain 0 and +inf", id="null-pattern-minus-infinity"
            ),
            pytest.param({"n": 1}, "n must be at least 2", id="n-one"),
            pytest.param({"phi": 7}, "phi must be one of 1, 2, 3, 4", id="phi-seven-rsw-only"),
            pytest.param({"phi": 5}, "phi must be one of 1, 2, 3, 4", id="phi-five-rsw-only"),
            pytest.param({"kappa": "fixed:inf"}, "fixed kappa must be positive and finite", id="kappa-fixed-inf"),
            pytest.param({"infinity_surrogate": True}, "'infinity_surrogate'", id="infinity-surrogate-bool"),
            pytest.param({"beta": False}, "'beta'", id="beta-bool"),
            pytest.param({"null_patterns": [[False, "inf"]]}, "'null_patterns'", id="null-pattern-bool"),
            pytest.param(
                {"run": ["power"], "alternatives": [[True, 0]]}, "'alternatives'", id="alternative-bool"
            ),
            pytest.param({"seed": -1}, "seed must be a non-negative integer", id="seed-negative"),
            pytest.param(
                {"procedures": ["GMS", "GMS"]}, "procedure 'GMS' is listed twice", id="procedures-duplicate"
            ),
            pytest.param(
                {"statistics": ["mmm", "mmm"]}, "statistic 'mmm' is listed twice", id="statistics-duplicate"
            ),
            pytest.param(
                {"statistics": ["mmm", "MMM"]}, "statistic 'mmm' is listed twice", id="statistics-spelled-duplicate"
            ),
            pytest.param({"statistics": ["mmm", "qlr"]}, "unknown statistic 'qlr'", id="statistics-unknown"),
            pytest.param({"family": {"kind": "Custom", "rho": ["nan"]}}, "config key 'family'", id="family-nan-rho"),
            pytest.param({"run": ["mnrp", "mnrp"]}, "phase 'mnrp' is listed twice", id="run-repeated-phase"),
            pytest.param(
                {"alternatives": [[-1, 1]], "run": ["mnrp", "power", "power"]},
                "phase 'power' is listed twice",
                id="run-repeated-power",
            ),
            pytest.param([1, 2], "the config must be a JSON object", id="not-an-object"),
            pytest.param({"null_patterns": "bogus"}, "unknown null pattern scheme 'bogus'", id="null-patterns-bogus"),
            pytest.param({"r_mc": 0}, "r_mc must be at least 1", id="r-mc-zero"),
            pytest.param({"b": 50}, "bootstrap draw count must be at least 100", id="b-fifty"),
            pytest.param({"null_patterns": [[0]]}, "null pattern length must equal J", id="null-pattern-short"),
            pytest.param({"alternatives": [[-1, 1, 0]]}, "alternative mean length must equal J", id="alternative-long"),
            pytest.param({"alternatives": [["inf", 0]]}, "alternative means must be finite", id="alternative-inf"),
            pytest.param({"J": 3}, "Neg family is only defined for J in {2, 4, 10}", id="family-neg-j3"),
            pytest.param({"family": "Bogus"}, "unknown correlation family kind 'Bogus'", id="family-unknown-kind"),
            pytest.param(
                {"family": {"kind": "Zero", "extra": 1}}, "'family': unknown key 'extra'", id="family-extra-key"
            ),
            pytest.param(
                {"family": {"kind": "Neg", "rho": [0.3]}},
                "rho is read only with kind 'Custom', not 'Neg'",
                id="family-neg-rho",
            ),
            pytest.param(
                {"J": 3, "family": {"kind": "Custom", "rho": [0.5, False]}},
                "'family': expected a number, got False",
                id="family-bool-rho",
            ),
            pytest.param({"rms_tables": False}, "config key 'rms_tables'", id="rms-tables-false"),
            pytest.param({"rms_tables": 0}, "config key 'rms_tables'", id="rms-tables-zero"),
            pytest.param({"rms_tables": ""}, "config key 'rms_tables'", id="rms-tables-empty"),
        ],
    )
    def test_invalid_config_exits_two_before_replicating(self, tmp_path, capsys, monkeypatch, fields, fragment):
        import cmselect.harness

        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cmselect.harness, "_replicate", no_replication)
        path = tmp_path / "invalid.json"
        base = {"J": 2, "family": "Neg", "n": 50, "r_mc": 2, "b": 100, "procedures": ["RSW"]}
        path.write_text(json.dumps(base | fields if isinstance(fields, dict) else fields))
        assert main(["simulate", str(path)]) == 2
        assert fragment in capsys.readouterr().err

    def test_failed_replication_exits_two(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(
            {"J": 2, "family": "Neg", "n": 3, "r_mc": 2, "b": 100, "procedures": ["GMS"]}
        ))
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: replication failed at pattern 0, replication 0")

    def test_unknown_phase_exits_two(self, tmp_path):
        path = tmp_path / "phase.json"
        path.write_text(json.dumps({"J": 2, "family": "Zero", "n": 50, "run": ["bogus"]}))
        assert main(["simulate", str(path)]) == 2

    def test_seed_and_threads_flags_equal_the_config_keys(self, tmp_path, capsys):
        base = {"J": 2, "family": "Neg", "n": 50, "r_mc": 6, "b": 100, "procedures": ["GMS", "CMS"], "seed": 1}
        written = {}
        for name, config, flags in (
            ("flags", base, ["--seed", "9", "--threads", "2"]),
            ("keys", dict(base, seed=9, threads=2), []),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(["simulate", str(path), "--output", str(out), "--format", "json", *flags]) == 0
            written[name] = (tmp_path / f"{name}_mnrp.json").read_text()
        capsys.readouterr()
        assert written["flags"] == written["keys"]

    def test_spelled_infinity_equals_json_infinity(self, tmp_path):
        configs = {}
        for spelling in ("inf", "+inf", "Infinity", math.inf):
            path = tmp_path / "patterns.json"
            path.write_text(json.dumps({"J": 2, "n": 50, "null_patterns": [[0, spelling], [spelling, 0]]}))
            configs[spelling] = load_config(path)[0]
        assert configs[math.inf].null_mu == ((0.0, math.inf), (math.inf, 0.0))
        assert all(config == configs[math.inf] for config in configs.values())

    def test_one_default_kappa_schedule(self, sim_config):
        assert DEFAULT_KAPPA == KappaSchedule.parse("sqrt-log-n")
        assert inspect.signature(run_test).parameters["schedule"].default is DEFAULT_KAPPA
        assert load_config(sim_config)[0].kappa is DEFAULT_KAPPA
        for command in ("test", "invert"):
            assert build_parser().parse_args([command, "data.csv"]).kappa == DEFAULT_KAPPA.spell()

    def test_custom_family_config_runs(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "J": 3, "family": {"kind": "Custom", "rho": [0.4, 0.1]}, "n": 60, "r_mc": 4, "b": 100,
            "procedures": ["GMS", "CMS"], "statistics": ["mmm"], "kappa": "fixed:1.5", "phi": 2,
        }))
        assert main(["simulate", str(path), "--output", str(tmp_path / "custom")]) == 0
        capsys.readouterr()
        rows = (tmp_path / "custom_mnrp.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 7
        assert all(row.split(",")[3] == "Custom" for row in rows)


class TestQPCapPolicy:
    """An AQLR program unfinished at the batch QP's round cap is an error
    in every command; here the cap is zero rounds, so any instance with a
    negative entry is left unfinished."""

    @pytest.fixture(autouse=True)
    def no_rounds(self, monkeypatch):
        import cmselect.statistics
        from cmselect.qp import nonneg_projection_batch

        monkeypatch.setattr(
            cmselect.statistics, "nonneg_projection_batch", functools.partial(nonneg_projection_batch, max_iter=0)
        )

    def test_test_exits_two(self, violated_csv, capsys):
        assert main(["test", str(violated_csv), "--statistic", "aqlr", "--draws", "200"]) == 2
        assert capsys.readouterr().err == "error: batch QP left 1 of 1 instances unfinished after 0 rounds\n"

    def test_invert_lists_the_point_as_failed(self, violated_csv, capsys):
        assert main(["invert", str(violated_csv), "--statistic", "aqlr", "--draws", "200"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["confidence_set"] == []
        assert payload["points"][0]["error"].startswith("batch QP left")

    def test_sweep_stops_naming_the_pattern_and_replication(self, sim_config, capsys):
        config = json.loads(sim_config.read_text()) | {"statistics": ["aqlr"]}
        sim_config.write_text(json.dumps(config))
        assert main(["simulate", str(sim_config), "--r-mc", "2", "--b", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: replication failed at pattern 0, replication 0: batch QP left")
