import csv
import hashlib
import importlib
import json
import math
import pkgutil
import re
import time
from pathlib import Path

import pytest

import fdrelay
from fdrelay import beamforming, channel, cli, harness
from fdrelay.cli import main
from fdrelay.config import ConfigError, DEFAULTS, build_scenario, load_config, parse_config
from fdrelay.harness import Scenario, place_relay, run_trial
from fdrelay.positioning import LOS_PROBE_BUDGET, NoLosPositionError
from fdrelay.solver import SolverError

FAST_CFG = "dn_rule = fixed\ntrials = 2\nmaster_seed = 7\n"

# a valid value other than the default, for every config key
OTHER_VALUES = {
    "h_min": 150.0,
    "h_max": 250.0,
    "p_s_tot_dbm": 30.0,
    "p_v_tot_dbm": 30.0,
    "noise1_dbm": -100.0,
    "noise2_dbm": -100.0,
    "fc_hz": 28e9,
    "alpha_los": 2.0,
    "alpha_nlos": 3.5,
    "L": 2,
    "sigma_f": 0.3,
    "los_a": 9.61,
    "los_b": 0.16,
    "m_s": 2,
    "n_s": 2,
    "m_r": 2,
    "n_r": 2,
    "m_t": 2,
    "n_t": 2,
    "m_d": 2,
    "n_d": 2,
    "eps_x": 2.0,
    "eps_y": 2.0,
    "eps_h": 2.0,
    "kappa": 5.0,
    "eps_r": 0.001,
    "trials": 10,
    "master_seed": 1,
    "delta_m_deg": 5.0,
    "dn_rule": "fixed",
    "dn_x": 500.0,
    "dn_y": 200.0,
    "dn_radius_m": 700.0,
    "panel_separation": 5.0,
    "max_iters": 20,
    "workers": 2,
}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


class TestConfigParsing:
    def test_defaults_are_complete(self):
        scenario = build_scenario({})
        assert scenario.trials == 200
        assert scenario.p_s_tot == pytest.approx(0.1)
        assert scenario.noise1 == pytest.approx(1e-14)
        assert scenario.env.fc_hz == 38e9
        assert scenario.dn_rule == "disk"

    def test_empty_config_builds_the_default_scenario(self):
        assert build_scenario({}) == Scenario()

    def test_every_key_reaches_the_scenario(self):
        assert set(OTHER_VALUES) == set(DEFAULTS)
        default = build_scenario({})
        for key, value in OTHER_VALUES.items():
            assert value != DEFAULTS[key]
            assert build_scenario({key: value}) != default, key

    def test_sigma_f_default_tracks_path_count(self):
        assert build_scenario({}).env.sigma_f == pytest.approx(1.0 / math.sqrt(4))
        assert build_scenario({"L": 9}).env.sigma_f == pytest.approx(1.0 / 3.0)
        assert build_scenario({"sigma_f": 0.7}).env.sigma_f == 0.7

    def test_comments_blanks_and_spacing(self):
        out = parse_config("# comment\n\n  trials=5\n kappa =  2.5 \n")
        assert out == {"trials": 5, "kappa": 2.5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("speed = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("trials = 2\ntrials = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("trials 2\n")

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("trials = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("kappa = inf\n")

    def test_int_keys_parse_to_int(self):
        out = parse_config("m_s = 8\n")
        assert out["m_s"] == 8 and isinstance(out["m_s"], int)

    def test_invalid_scenario_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            build_scenario({"dn_rule": "hexagon"})
        with pytest.raises(ConfigError):
            build_scenario({"kappa": 0.5})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestReadme:
    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_config_table_shows_every_default(self):
        shown = {}
        for line in self.TEXT.splitlines():
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                keys = re.findall(r"`(\w+)`", cells[0])
                values = [value.strip() for value in cells[1].split(",")]
                assert len(values) in (1, len(keys)), line
                shown.update(zip(keys, values * len(keys) if len(values) == 1 else values))
        assert set(shown) == set(DEFAULTS)
        for key, default in DEFAULTS.items():
            if default is None:
                assert shown[key] == "1/sqrt(L)", key
            elif isinstance(default, str):
                assert shown[key] == default, key
            else:
                assert float(shown[key]) == default, key

    def test_sweepable_line_names_the_sweep_table(self):
        line = re.search(r"Sweepable parameters: ([^.]*)\.", self.TEXT).group(1)
        assert re.findall(r"`(\w+)`", line) == list(harness.SWEEPS)

    def test_dotted_names_resolve(self):
        # every backticked `module.name` or `Class.attribute` names an
        # attribute of fdrelay, so a deleted or renamed one fails here
        modules = {"fdrelay": fdrelay}
        for info in pkgutil.iter_modules(fdrelay.__path__):
            modules[info.name] = importlib.import_module(f"fdrelay.{info.name}")
        names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", self.TEXT)
        assert {"channel.LosRoute", "EnvironmentRealization.los_indicator"} <= set(names)
        for name in names:
            first, *rest = name.split(".")
            owners = [modules[first]] if first in modules else [
                getattr(m, first) for m in modules.values() if hasattr(m, first)
            ]
            assert owners, name
            obj = owners[0]
            for part in rest:
                assert hasattr(obj, part), name
                obj = getattr(obj, part)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["fly"]) == 2

    def test_bad_config_path(self, capsys):
        assert main(["position", "--config", "/nope.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sweep_flag(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--config", fast_config, "--sweep", "bogus", "--out", out]) == 2
        assert main(["sweep", "--config", fast_config, "--sweep", "foo=1,2", "--out", out]) == 2

    @pytest.mark.parametrize("flag", ["p_v_tot_dbm=nan", "p_v_tot_dbm=inf", "array=inf"])
    def test_non_finite_sweep_value_fails_before_the_first_trial(
        self, flag, fast_config, tmp_path, monkeypatch, capsys
    ):
        trials = []
        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda s, i: trials.append(i) or real(s, i))
        out = tmp_path / "o.csv"
        argv = ["sweep", "--config", fast_config, "--trials", "1", "--sweep", flag]
        assert main(argv + ["--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert trials == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["array=4,0.5", "p_v_tot_dbm=20,4000"])
    def test_bad_later_sweep_value_fails_before_the_first_trial(
        self, flag, fast_config, tmp_path, monkeypatch, capsys
    ):
        trials = []
        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda s, i: trials.append(i) or real(s, i))
        out = tmp_path / "o.csv"
        argv = ["sweep", "--config", fast_config, "--trials", "3", "--sweep", flag]
        assert main(argv + ["--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert trials == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "p_s_tot_dbm = 4000\n",
            "alpha_los = 300\nalpha_nlos = 300\n",
            "h_min = 1e300\nh_max = 1e300\n",
        ],
    )
    def test_overflowing_config_is_a_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        assert main(["trial", "--config", str(path)]) == 2
        assert "error: a value overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["position", "trial"])
    @pytest.mark.parametrize(
        "text, code",
        [
            ("eps_x = 1e-300\n", 0),
            # too many grid steps to search, though every cell fits an int64
            ("dn_rule = fixed\ndn_x = 1e12\ndn_y = 1e12\n", 2),
            ("dn_rule = fixed\ndn_x = 1e20\ndn_y = 1e20\n", 2),
            ("dn_radius_m = 1e300\n", 2),
        ],
    )
    def test_cells_past_the_int64_range_run_or_exit_cleanly(self, command, text, code, tmp_path, capsys):
        # the relay's LoS cell lies beyond 2**62 on some axis
        path = tmp_path / "far.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            # the box is too large to search: the message names the axis, its
            # step count and its grid key
            assert re.search(r"error: the LoS search box spans \S+ grid steps along x, "
                             r"more than 1048576: raise eps_x or shrink the box", err)
            dn_x = re.search(r"dn_x = (\S+)", text)
            if dn_x:  # a fixed DN spans dn_x steps of the default eps_x = 1
                assert f"spans {float(dn_x[1]):.4g} grid steps" in err

    def test_success_is_zero(self, fast_config, capsys):
        assert main(["position", "--config", fast_config]) == 0

    def test_unwritable_out_is_usage_error(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "missing" / "o.csv")
        argv = ["sweep", "--config", fast_config, "--trials", "1", "--sweep", "array=2"]
        assert main(argv + ["--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_first_trial(self, fast_config, tmp_path, monkeypatch, capsys):
        trials = []
        real = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda s, i: trials.append(i) or real(s, i))
        # converge and trial call the CLI's own binding
        monkeypatch.setattr(cli, "run_trial", harness.run_trial)
        out = str(tmp_path / "missing" / "o.csv")
        for argv in (["sweep", "--sweep", "array=2,4"], ["converge"], ["trial"]):
            assert main([*argv, "--config", fast_config, "--out", out]) == 2, argv
        assert trials == []

    def test_failed_sweep_leaves_no_csv(self, fast_config, tmp_path, monkeypatch, capsys):
        def fail(scenario, trial_index):
            raise SolverError("stub failure")

        monkeypatch.setattr(harness, "run_trial", fail)
        out = tmp_path / "o.csv"
        argv = ["sweep", "--config", fast_config, "--sweep", "array=2", "--out"]
        assert main(argv + [str(out)]) == 3
        assert not out.exists()
        # a link is left in place, as a device like /dev/stdout would be
        target = tmp_path / "target.csv"
        target.write_text("kept\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(argv + [str(link)]) == 3
        assert link.is_symlink() and target.exists()

    def test_failing_trial_is_named(self, fast_config, tmp_path, monkeypatch, capsys):
        # trial 1 fails on the 7th solve of its second AIS run, the random
        # position's: pass 2 solves w_r, w_t, w_s, w_d as its solves 5-8.
        # The counts live in each worker process the pool forks.
        at = {"trial": None, "run": 0, "solve": 0}
        trial, run_ais, solve = harness.run_trial, harness.run_ais, beamforming.solve_bf_subproblem

        def counted_trial(scenario, trial_index):
            at.update(trial=trial_index, run=0)
            return trial(scenario, trial_index)

        def counted_run(*args):
            at.update(run=at["run"] + 1, solve=0)
            return run_ais(*args)

        def failing_solve(*args):
            at["solve"] += 1
            if (at["trial"], at["run"], at["solve"]) == (1, 2, 7):
                raise SolverError("stub failure")
            return solve(*args)

        monkeypatch.setattr(harness, "run_trial", counted_trial)
        monkeypatch.setattr(harness, "run_ais", counted_run)
        monkeypatch.setattr(beamforming, "solve_bf_subproblem", failing_solve)
        out = str(tmp_path / "o.csv")
        argv = ["sweep", "--config", fast_config, "--sweep", "array=2", "--out", out]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "master_seed=7 trial_index=1: random position: AIS pass 2, w_s: stub failure" in err

    @pytest.mark.parametrize("argv", [
        ["trial"], ["converge"], ["sweep", "--sweep", "delta_m_deg=0"],
        # the 2x2 panels run, and the line names the swept 3x3 ones
        ["sweep", "--sweep", "array=2,3"],
    ])
    def test_out_of_memory_exits_3_naming_the_panels(self, argv, tmp_path, monkeypatch, capsys):
        # a stand-in for the allocation that fails first at 64x64 panels,
        # here at any transmit panel but 2x2; no real allocation is attempted
        real = channel.si_element_distances

        def no_memory(env, tx_upa, rx_upa):
            if (tx_upa.rows, tx_upa.cols) == (2, 2):
                return real(env, tx_upa, rx_upa)
            raise MemoryError("Unable to allocate 384. MiB for an array with shape (4096, 4096, 3)")

        channel.build_si_channel.cache_clear()  # a cached channel would skip the stand-in
        monkeypatch.setattr(channel, "si_element_distances", no_memory)
        path = tmp_path / "panels.cfg"
        path.write_text(FAST_CFG + "m_s = 1\nn_s = 2\nm_r = 3\nn_r = 4\nm_t = 2\nn_t = 1\nm_d = 4\nn_d = 3\n")
        out = tmp_path / "o.csv"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        panels = "3x3, 3x3, 3x3, 3x3" if "array=2,3" in argv else "1x2, 3x4, 2x1, 4x3"
        assert err == f"out of memory at panels s, r, t, d of {panels} elements\n"
        assert not out.exists()

    def test_out_of_memory_before_the_scenario_exits_3(self, fast_config, monkeypatch, capsys):
        def no_memory(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_config", no_memory)
        assert main(["trial", "--config", fast_config]) == 3
        assert capsys.readouterr().err == "out of memory\n"

    def test_trial_index_and_flag_scope(self, fast_config, capsys):
        assert main(["trial", "--config", fast_config, "--trial-index", "-1"]) == 2
        assert main(["converge", "--config", fast_config, "--trial-index", "x"]) == 2
        assert main(["position", "--config", fast_config, "--trials", "5"]) == 2
        assert main(["trial", "--config", fast_config, "--workers", "2"]) == 2


class TestPositionCommand:
    def test_report_fields_and_stability(self, fast_config, capsys):
        assert main(["position", "--config", fast_config]) == 0
        first = capsys.readouterr().out
        assert main(["position", "--config", fast_config]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = dict(l.split(" = ", 1) for l in first.strip().splitlines())
        assert lines["dn"] == "(400.0, 300.0, 0.0)"
        assert float(lines["rho_star"]) == 0.5
        assert lines["fallback"] in ("0", "1")
        assert float(lines["approx_bound_s2v_bps_hz"]) > 0

    def test_los_probability_overflow_falls_back(self, tmp_path, capsys):
        # with los_a = 100, los_b = 10 the logistic's exponential overflows a
        # float below ~29 deg elevation; the 5 m hop at 1 m height stays below
        path = tmp_path / "blocked.cfg"
        path.write_text(
            "los_a = 100\nlos_b = 10\ndn_rule = fixed\ndn_x = 4\ndn_y = 3\n"
            "h_min = 1\nh_max = 1\n"
        )
        assert main(["position", "--config", str(path)]) == 0
        lines = dict(l.split(" = ", 1) for l in capsys.readouterr().out.strip().splitlines())
        assert lines["fallback"] == "1"
        assert lines["adjusted"] == lines["p_star"]

    def test_search_past_the_probe_budget_falls_back(self, tmp_path, capsys, monkeypatch):
        # no cell of the default box near p_star has LoS on both hops: the
        # search stops at LOS_PROBE_BUDGET cells instead of scanning all 13M
        raised = []
        search = harness.los_adjusted_position

        def recorded(*args):
            try:
                return search(*args)
            except NoLosPositionError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(harness, "los_adjusted_position", recorded)
        path = tmp_path / "starved.cfg"
        path.write_text("los_a = 100\nlos_b = 10\n")
        assert main(["position", "--config", str(path)]) == 0
        assert raised == [f"no LoS position within the probe budget of {LOS_PROBE_BUDGET} cells"]
        lines = dict(l.split(" = ", 1) for l in capsys.readouterr().out.strip().splitlines())
        assert lines["fallback"] == "1"
        assert lines["adjusted"] == lines["p_star"]

    def test_thin_box_search_is_bounded(self, tmp_path, capsys, monkeypatch):
        # a box one cell wide and tall decides two cells per ring; counting
        # each block as a full one bounds the ~200k rings (it ran > 100 s)
        raised = []
        search = harness.los_adjusted_position

        def recorded(*args):
            try:
                return search(*args)
            except NoLosPositionError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(harness, "los_adjusted_position", recorded)
        path = tmp_path / "thin.cfg"
        path.write_text(
            "los_a = 100\nlos_b = 10\ndn_rule = fixed\ndn_x = 400\ndn_y = 0\n"
            "h_min = 100\nh_max = 100\neps_x = 0.001\n"
        )
        start = time.perf_counter()
        assert main(["position", "--config", str(path)]) == 0
        assert time.perf_counter() - start < 20.0
        assert raised == [f"no LoS position within the probe budget of {LOS_PROBE_BUDGET} cells"]
        lines = dict(l.split(" = ", 1) for l in capsys.readouterr().out.strip().splitlines())
        assert lines["fallback"] == "1"

    @pytest.mark.parametrize("text", ["eps_x = 0\n", "eps_h = -1\n"])
    def test_non_positive_grid_step_is_a_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        assert main(["position", "--config", str(path)]) == 2
        assert "grid steps must be positive" in capsys.readouterr().err

    def test_floor_below_half_a_height_step(self, tmp_path, capsys):
        # h_min < eps_h / 2 used to put the relay's LoS cell on the ground
        # layer, where a cell over the source exited 2 on "endpoints coincide"
        path = tmp_path / "low.cfg"
        path.write_text("h_min = 0.4\nh_max = 0.4\np_s_tot_dbm = -60\ndn_rule = fixed\n")
        assert main(["position", "--config", str(path)]) == 0
        lines = dict(l.split(" = ", 1) for l in capsys.readouterr().out.strip().splitlines())
        assert lines["p_star"] == "(0.0, 0.0, 0.4)"
        assert lines["adjusted"].endswith(", 0.4)")


class TestConvergeCommand:
    def test_trace_csv(self, fast_config, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["converge", "--config", fast_config, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["iteration", "rate", "si_gain", "s2d_gain", "p_s", "p_v"]
        assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))
        si = [float(r["si_gain"]) for r in rows]
        for a, b in zip(si[1:], si[2:]):
            assert b <= a * (1 + 1e-9)
        rates = [float(r["rate"]) for r in rows]
        assert rates[-1] - rates[-2] <= 0.01
        assert rates[-1] > rates[0]
        p_v = [float(r["p_v"]) for r in rows]
        assert p_v[0] < p_v[-1]  # early passes throttle the relay against SI

    def test_stdout_mode(self, fast_config, capsys):
        assert main(["converge", "--config", fast_config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iteration,rate,si_gain,s2d_gain,p_s,p_v\n")


class TestSweepCommand:
    def test_csv_layout_and_reproducibility(self, fast_config, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["sweep", "--config", fast_config, "--sweep", "p_v_tot_dbm=10,20"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert tuple(header) == (
            "sweep_param",
            "sweep_value",
            "scheme",
            "mean_rate_bps_hz",
            "stderr",
            "n_trials",
            "mean_iters",
            "fallback_frac",
        )
        assert len(rows) == 8  # 2 sweep values x 4 schemes
        assert {r[2] for r in rows} == {
            "proposed",
            "randpos_ais",
            "despos_steer",
            "strict_bound",
        }

    def test_seed_and_trials_overrides_change_output(self, fast_config, tmp_path, capsys):
        base = tmp_path / "base.csv"
        seeded = tmp_path / "seeded.csv"
        argv = ["sweep", "--config", fast_config, "--sweep", "delta_m_deg=0"]
        assert main(argv + ["--out", str(base)]) == 0
        assert main(argv + ["--seed", "99", "--out", str(seeded)]) == 0
        assert base.read_bytes() != seeded.read_bytes()

        with open(base, newline="") as fh:
            n_col = [row["n_trials"] for row in csv.DictReader(fh)]
        assert n_col == ["2"] * 4
        more = tmp_path / "more.csv"
        assert main(argv + ["--trials", "3", "--out", str(more)]) == 0
        with open(more, newline="") as fh:
            n_col = [row["n_trials"] for row in csv.DictReader(fh)]
        assert n_col == ["3"] * 4

    def test_csv_bytes_pinned(self, fast_config, tmp_path, capsys, pin_note):
        # a refactor must not move any output bit
        out = tmp_path / "pinned.csv"
        argv = ["sweep", "--config", fast_config, "--trials", "3", "--sweep", "array=2,4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "d7d02020ea71ee31f2832e1c35bbfd347e24243240fd0aa68cb20fc84351bb3d"
        ), pin_note


class TestTrialIndex:
    """Single-trial commands replay trial N of the configured scenario."""

    @pytest.fixture
    def disk_config(self, tmp_path):
        # drawn destinations, so trial 3 differs from trial 0
        path = tmp_path / "disk.cfg"
        path.write_text("trials = 2\nmaster_seed = 7\n")
        return str(path)

    def test_converge_replays_trial(self, disk_config, capsys):
        assert main(["converge", "--config", disk_config, "--trial-index", "3"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        result = run_trial(build_scenario(load_config(disk_config)), 3)
        assert [float(r["rate"]) for r in rows] == list(result.rate_trace)
        assert [float(r["si_gain"]) for r in rows] == list(result.si_gain_trace)
        assert [float(r["s2d_gain"]) for r in rows] == list(result.s2d_gain_trace)
        assert [(float(r["p_s"]), float(r["p_v"])) for r in rows] == list(result.power_trace)

    def test_trial_replays_trial(self, disk_config, capsys):
        assert main(["trial", "--config", disk_config, "--trial-index", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        result = run_trial(build_scenario(load_config(disk_config)), 3)
        assert doc["trial_index"] == 3
        assert doc["rates"] == result.rates
        assert doc["dn"] == [result.dn.x, result.dn.y, result.dn.z]

    def test_position_replays_trial(self, disk_config, capsys):
        assert main(["position", "--config", disk_config, "--trial-index", "3"]) == 0
        third = capsys.readouterr().out
        assert main(["position", "--config", disk_config]) == 0
        assert third != capsys.readouterr().out
        lines = dict(l.split(" = ", 1) for l in third.strip().splitlines())
        placement = place_relay(build_scenario(load_config(disk_config)), 3)
        expected = {"dn": placement.dn, "p_star": placement.p_star, "adjusted": placement.designed}
        for key, v in expected.items():
            assert lines[key] == f"({v.x!r}, {v.y!r}, {v.z!r})"
        assert float(lines["rho_star"]) == placement.rho
        assert lines["fallback"] == str(int(placement.fallback))

    def test_index_zero_is_the_default(self, disk_config, capsys):
        assert main(["trial", "--config", disk_config]) == 0
        default = capsys.readouterr().out
        assert main(["trial", "--config", disk_config, "--trial-index", "0"]) == 0
        assert capsys.readouterr().out == default


class TestTrialCommand:
    def test_json_report(self, fast_config, tmp_path, capsys):
        out = tmp_path / "trial.json"
        assert main(["trial", "--config", fast_config, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["trial_index"] == 0
        assert set(doc["rates"]) == {"proposed", "randpos_ais", "despos_steer"}
        assert doc["rates"]["proposed"] >= doc["rates"]["despos_steer"]
        assert doc["strict_bound_min"] >= doc["rates"]["proposed"]
        assert len(doc["powers_proposed"]) == 2

    def test_stdout_json_parses(self, fast_config, capsys):
        assert main(["trial", "--config", fast_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fallback"] in (False, True)

    def test_no_nlos_rays(self, tmp_path, capsys):
        # with no sigma_f set, L = 0 used to divide by sqrt(0)
        path = tmp_path / "los_only.cfg"
        path.write_text(FAST_CFG + "L = 0\n")
        assert main(["trial", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["rates"]["proposed"] > 0
        path.write_text(FAST_CFG + "L = -1\n")
        assert main(["trial", "--config", str(path)]) == 2
        assert "NLoS path count" in capsys.readouterr().err
