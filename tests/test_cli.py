import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from combbeam.cli import (
    ConfigError,
    load_config_file,
    main,
    parse_config,
    scenario_path,
    write_csv_atomic,
)
from combbeam.kspace import (
    beamform_envelope,
    calibrate_axis,
    default_time_grid,
    find_peaks,
    probe_scene,
)
from combbeam.propagation import scene_element_phasors

from scenario_yaml import dump

BUNDLED = ("single_source", "three_sources", "oblique_map",
           "oblique_map_mirrored", "boresight_curvature")


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_round_trip(name):
    # each bundled scenario parses, to the same config every time, and so
    # does a YAML dump of its document
    text = scenario_path(name).read_text()
    cfg = parse_config(text)
    assert parse_config(text) == cfg
    assert parse_config(dump(yaml.safe_load(text))) == cfg


def test_a_dumped_string_that_reads_as_a_number_round_trips():
    # yaml.safe_dump writes "1e5" plain, which parse_config reads as the
    # YAML 1.2 float 100000.0 and rejects as output.directory
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["output"] = {"directory": "1e5"}
    assert parse_config(dump(data)).output_directory == "1e5"


def test_scenario_path_unknown_name():
    with pytest.raises(ConfigError):
        scenario_path("missing_scenario")


def test_parse_rejects_unknown_keys():
    text = scenario_path("single_source").read_text() + "\n"
    with pytest.raises(ConfigError, match=r"sim.*foo"):
        parse_config(text.replace("sim:", "sim:\n  foo: 1"))
    with pytest.raises(ConfigError, match="config"):
        parse_config(text + "extra_section: {}\n")


def test_unknown_keys_of_mixed_types_are_named():
    # an integer key beside a string key once failed to sort and exited 2
    text = scenario_path("single_source").read_text()
    with pytest.raises(ConfigError,
                       match=r"^comb: unknown key\(s\) \[1, 'foo'\]$"):
        parse_config(text.replace("comb:", "comb:\n  1: 0\n  foo: 0"))


def test_parse_rejects_bad_values():
    text = scenario_path("single_source").read_text()

    def rejects(mutate):
        data = yaml.safe_load(text)
        mutate(data)
        with pytest.raises(ConfigError):
            parse_config(dump(data))

    rejects(lambda c: c["comb"].__setitem__("num_tones", "21"))
    rejects(lambda c: c["comb"].__setitem__("num_tones", True))
    rejects(lambda c: c.pop("comb"))
    rejects(lambda c: c.__setitem__("sources", []))
    rejects(lambda c: c["sources"].__setitem__(
        0, {"az_deg": -45.0, "range_m": 8.0, "position": [1, 2, 3]}))
    rejects(lambda c: c["sources"].__setitem__(0, {"range_m": 8.0}))
    rejects(lambda c: c["sources"].__setitem__(0, {"farfield": [0.1, 0.2, 0.3]}))
    rejects(lambda c: c["sources"].append({"farfield": [0.1, 0.0]}))
    rejects(lambda c: c["array"].__setitem__("kind", "circular"))
    rejects(lambda c: c["sim"].__setitem__("noise", {"sigma": -1.0}))
    # a falsy non-mapping section once parsed as all defaults
    rejects(lambda c: c.__setitem__("sim", 0))
    rejects(lambda c: c.__setitem__("sim", []))
    rejects(lambda c: c.__setitem__("output", False))
    rejects(lambda c: c.__setitem__("output", ""))
    # an integer too large for a float once exited 2
    rejects(lambda c: c["comb"].__setitem__("f0_hz", 10 ** 400))
    rejects(lambda c: c["sources"].__setitem__(
        0, {"position": [10 ** 400, 0.0, 1.0]}))


def test_simulate_single_source(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(scenario_path("single_source")),
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "envelope.csv")
    assert header == ["time_s", "envelope", "u", "azimuth_deg"]
    assert len(rows) == 4096
    header, rows = _read_csv(out / "peaks.csv")
    assert header == ["time_s", "u", "azimuth_deg", "magnitude"]
    assert len(rows) == 1
    assert -47.0 < float(rows[0][2]) < -43.0
    header, rows = _read_csv(out / "phasors.csv")
    assert header == ["element", "tone", "baseband_hz", "magnitude",
                      "phase_rad"]
    assert len(rows) == 21
    assert not list(out.glob("*.tmp"))


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "--config", str(scenario_path("single_source")),
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_grid_points_override(tmp_path):
    rc = main(["simulate", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--grid-points", "1024"])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "envelope.csv")
    assert len(rows) == 1024


def test_simulate_silent_source_writes_empty_peaks(tmp_path):
    text = scenario_path("single_source").read_text().replace(
        "range_m: 8.4853", "range_m: 8.4853\n    amplitude: 0.0")
    cfg = tmp_path / "silent.yaml"
    cfg.write_text(text)
    rc = main(["simulate", "--config", str(cfg), "--out",
               str(tmp_path / "out")])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "out" / "peaks.csv")
    assert rows == []


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("comb: {f0_hz: 1.0}\n")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)]) == 3
    # a planar single-tone array cannot be tuned -> config error
    single = tmp_path / "single.yaml"
    single.write_text(scenario_path("boresight_curvature").read_text())
    assert main(["simulate", "--config", str(single),
                 "--out", str(tmp_path)]) == 1
    # no output directory anywhere
    assert main(["simulate", "--config",
                 str(scenario_path("single_source"))]) == 1


def test_phase_map_command(tmp_path):
    rc = main(["phase-map", "--config", str(scenario_path("oblique_map")),
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "phase_map.csv")
    assert header == ["m", "n", "x_m", "y_m", "phase_deg"]
    assert len(rows) == 14 * 14
    assert all(-180.0 < float(r[4]) <= 180.0 for r in rows)
    header, rows = _read_csv(tmp_path / "curvature.csv")
    assert header == ["m", "n", "residual_cycles"]
    assert len(rows) == 14 * 14


def test_phase_map_rejects_linear_array(tmp_path):
    rc = main(["phase-map", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("command, name", [("simulate", "three_sources"),
                                           ("phase-map", "oblique_map")])
def test_phase_map_of_several_sources_is_a_config_error(tmp_path, capsys,
                                                        command, name):
    # phase maps once showed the first source alone and ignored the others
    data = yaml.safe_load(scenario_path(name).read_text())
    data["output"] = {"emit_phase_map": True}
    data["sources"] = data["sources"][:1] + [{"position": [1.0, 0.0, 5.0]}]
    cfg = tmp_path / "map.yaml"
    cfg.write_text(dump(data))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: sources")
    assert not list(tmp_path.glob("out/*.csv"))


def test_simulate_emit_phase_map_writes_one_row_per_element(tmp_path):
    text = scenario_path("single_source").read_text().replace(
        "output: {}", "output: {emit_phase_map: true}")
    cfg = tmp_path / "map.yaml"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "phase_map.csv")
    assert header == ["m", "n", "x_m", "y_m", "phase_deg"]
    assert len(rows) == 21
    assert all(-180.0 < float(r[4]) <= 180.0 for r in rows)


def test_sweep_point_without_a_peak_is_named(tmp_path, capsys):
    # a silent source gives no peak; the point is named in the error
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["sources"][0]["amplitude"] = 0.0
    cfg = tmp_path / "silent.yaml"
    cfg.write_text(dump(data))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                 "--param", "range_m", "--values", "2,4"]) == 2
    assert "sweep point range_m=2.0: no peak found" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_range(tmp_path):
    rc = main(["sweep", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--param", "range_m",
               "--values", "2,8,32"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == ["value", "az_error_deg", "peak_magnitude", "width_u"]
    assert [float(r[0]) for r in rows] == [2.0, 8.0, 32.0]
    errs = [abs(float(r[1])) for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_sweep_num_tones_width_scaling(tmp_path):
    rc = main(["sweep", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--param", "num_tones",
               "--values", "11,21"])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    w11, w21 = (float(r[3]) for r in rows)
    assert w11 / w21 == pytest.approx(21 / 11, rel=0.10)


def test_sweep_bad_param_and_values(tmp_path, capsys):
    base = ["sweep", "--config", str(scenario_path("single_source")),
            "--out", str(tmp_path)]
    assert main(base + ["--param", "frequency", "--values", "1"]) == 1
    assert main(base + ["--param", "range_m", "--values", " , "]) == 1
    assert main(base + ["--param", "num_tones", "--values", "eleven"]) == 1
    # range sweep over a plane-wave scene has no range to vary
    ff = tmp_path / "ff.yaml"
    ff.write_text("""
comb: {f0_hz: 19000800000.0, delta_f_hz: 200000.0, num_tones: 21,
       duration_s: 0.000005}
array: {kind: linear, m: 21, dx_m: 0.007887199631675874}
sources: [{farfield: [0.5, 0.0]}]
""")
    assert main(["sweep", "--config", str(ff), "--out", str(tmp_path),
                 "--param", "range_m", "--values", "2,4"]) == 1
    assert "--param range_m" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--param", "bogus", "--values", "1"],
    ["--param", "num_tones", "--values", "eleven"],
    ["--param", "range_m", "--values", "2,-1"],
])
def test_sweep_config_errors_leave_no_output_directory(tmp_path, argv):
    # the output directory was once created before these checks ran
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(scenario_path("single_source")),
                 "--out", str(out), *argv]) == 1
    assert not out.exists()


@pytest.mark.parametrize("extra, flag", [
    (["--grid-points", "abc"], "--grid-points"),
    (["--bogus"], "--bogus"),
    (None, "--config"),
])
def test_usage_errors_are_config_errors(capsys, extra, flag):
    # argparse once exited 2, the code reserved for runtime errors
    argv = ["simulate", "--out", "unused"]
    if extra is not None:
        argv += ["--config", str(scenario_path("single_source")), *extra]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "config error: " in err and flag in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--values" in capsys.readouterr().out


def test_sweep_reruns_are_byte_identical_in_input_order(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(["sweep", "--config", str(scenario_path("single_source")),
                   "--out", str(out), "--param", "range_m",
                   "--values", "16,2,32,4,8"])
        assert rc == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    _, rows = _read_csv(tmp_path / "a" / "sweep.csv")
    assert [float(r[0]) for r in rows] == [16.0, 2.0, 32.0, 4.0, 8.0]


def test_calibrate_prints_axis_and_probes(capsys):
    rc = main(["calibrate", "--config", str(scenario_path("single_source"))])
    assert rc == 0
    text = capsys.readouterr().out
    assert "slope_sign=-1" in text
    probe_lines = [ln for ln in text.splitlines() if ln.startswith("probe")]
    assert len(probe_lines) == 4
    for line in probe_lines:
        residual = float(line.rsplit("residual=", 1)[1])
        assert abs(residual) < 1e-3


def test_calibrate_descending_order(tmp_path, capsys):
    text = scenario_path("single_source").read_text().replace(
        "kind: linear", "kind: linear\n  tuning_order: descending")
    cfg = tmp_path / "desc.yaml"
    cfg.write_text(text)
    assert main(["calibrate", "--config", str(cfg)]) == 0
    assert "slope_sign=1" in capsys.readouterr().out


def test_seed_override_changes_noise(tmp_path):
    text = scenario_path("single_source").read_text().replace(
        "  lo_hz:", "  noise: {sigma: 0.5, seed: 0}\n  lo_hz:")
    cfg = tmp_path / "noisy.yaml"
    cfg.write_text(text)

    def run(seed, tag):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        return (out / "envelope.csv").read_bytes()

    assert run(1, "a") == run(1, "b")
    assert run(1, "c") != run(2, "d")


def test_seed_without_noise_is_a_config_error(tmp_path, capsys):
    # --seed on a noiseless scenario was once ignored with exit 0
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(scenario_path("single_source")),
                 "--out", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("config error: --seed")
    assert not out.exists()


def test_noise_trials_key_is_rejected(tmp_path, capsys):
    # simulate adds one noise draw; a trial count it would ignore is an error
    text = scenario_path("single_source").read_text().replace(
        "  lo_hz:", "  noise: {sigma: 0.5, seed: 3, trials: 100}\n  lo_hz:")
    cfg = tmp_path / "trials.yaml"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert "sim.noise: unknown key(s) ['trials']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_zero_comb_amplitude_is_a_config_error(tmp_path, capsys, command):
    # a silent comb once exited 0: calibrate fitted its axis to all-zero
    # probes, simulate wrote an empty peaks.csv
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["comb"]["amplitude"] = 0.0
    cfg = tmp_path / "silent.yaml"
    cfg.write_text(dump(data))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: comb:")
    assert "amplitude" in err
    assert not out.exists()


def test_write_csv_atomic_removes_its_temp_file_when_a_row_fails(tmp_path):
    def rows():
        yield (1, 0.5)
        raise RuntimeError("row failed")

    target = tmp_path / "x.csv"
    with pytest.raises(RuntimeError, match="row failed"):
        write_csv_atomic(target, ["a", "b"], rows())
    assert not target.exists()
    assert not (tmp_path / "x.csv.tmp").exists()


def test_parse_rejects_partial_period_duration():
    text = scenario_path("single_source").read_text()
    for duration, periods in (("0.0000073", "1.46"), ("0.0000031", "0.62")):
        with pytest.raises(ConfigError, match=rf"comb\.duration_s.*{periods}"):
            parse_config(text.replace("0.000005", duration))
    two = parse_config(text.replace("0.000005", "0.00001"))
    assert two.comb.duration_s == 1e-5


def test_sweep_delta_f_needs_whole_periods(tmp_path, capsys):
    # a 10 µs period on the 5 µs window once gave az_error_deg = 90.82, exit 0
    rc = main(["sweep", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--param", "delta_f_hz",
               "--values", "100000"])
    assert rc == 1
    assert "comb.duration_s" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    rc = main(["sweep", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--param", "delta_f_hz",
               "--values", "200000,400000"])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert all(abs(float(r[1])) < 5.0 for r in rows)  # not the mirror


@pytest.mark.parametrize("param, value, named", [
    ("num_tones", "0", "num_tones=0"),
    ("spacing_m", "-0.01", "spacing_m=-0.01"),
    ("range_m", "-5", "range_m=-5.0"),
])
def test_sweep_bad_value_is_a_config_error(tmp_path, capsys, param, value,
                                           named):
    # each once ran the good points first, then exited 2 as a runtime error
    rc = main(["sweep", "--config", str(scenario_path("single_source")),
               "--out", str(tmp_path), "--param", param,
               "--values", f"8,{value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("min_separation_u", float("nan")),
    ("calibration_range_m", float("nan")),
    ("lo_hz", -1.0),
    ("lo_hz", float("inf")),
    ("grid_points", 2),
    ("grid_points", 3),
    ("grid_points", 4),
    ("grid_points", 16),
])
def test_bad_sim_field_is_a_config_error(tmp_path, capsys, field, value):
    # min_separation_u: .nan once ran and found 1 peak of 3
    import yaml

    data = yaml.safe_load(scenario_path("three_sources").read_text())
    data["sim"][field] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(dump(data))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert field in capsys.readouterr().err


def test_threshold_fraction_of_one_is_a_config_error(tmp_path, capsys):
    # find_peaks rejects 1.0 too, so a SimConfig that let it through would
    # turn this config error into a runtime error (exit 2)
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["sim"]["threshold_fraction"] = 1.0
    cfg = tmp_path / "threshold.yaml"
    cfg.write_text(dump(data))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sim")
    assert "threshold_fraction" in err
    assert not (tmp_path / "out").exists()


def test_negative_f0_without_an_lo_names_sim_lo_hz():
    # the LO defaults to comb.f0_hz; a negative one was once reported as
    # "f_lo_hz must be >= 0", a name no scenario has
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["comb"]["f0_hz"] = -100000.0
    del data["sim"]["lo_hz"]
    with pytest.raises(ConfigError, match=r"^sim\.lo_hz: "):
        parse_config(dump(data))


@pytest.mark.parametrize("lo, rc", [("1.0e+18", 1), ("1.0e+17", 0)])
@pytest.mark.parametrize("args", [
    ["simulate"], ["calibrate"],
    ["sweep", "--param", "spacing_m", "--values", "0.0078872"],
])
def test_an_lo_that_loses_the_tone_spacing_is_a_config_error(
        tmp_path, capsys, lo, rc, args):
    # at 1e18 Hz, f − LO rounds to multiples of 128 Hz, off the 0.2 MHz
    # lattice: simulate once exited 2 with a runtime error
    cfg = tmp_path / "lo.yaml"
    cfg.write_text(scenario_path("single_source").read_text().replace(
        "lo_hz: 19000000000.0", f"lo_hz: {lo}"))
    out = tmp_path / "out"
    assert main([args[0], "--config", str(cfg), "--out", str(out),
                 *args[1:]]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.startswith("config error:")
        assert "sim.lo_hz" in err
        assert not out.exists()


@pytest.mark.parametrize("text", ["1.9e10", "1.9e+10", "19e9", ".19e11",
                                  "1.9E10", "190e+8"])
def test_yaml_1_2_float_forms_are_numbers(text):
    # YAML 1.1 reads a float only with a dot and a signed exponent, so
    # these once loaded as strings and were config errors
    base = scenario_path("single_source").read_text()
    config = parse_config(base.replace("lo_hz: 19000000000.0",
                                       f"lo_hz: {text}"))
    assert config.sim.lo_hz == 1.9e10
    config = parse_config(base.replace("duration_s: 0.000005",
                                       "duration_s: 5e-6"))
    assert config.comb.duration_s == 5e-6


def test_an_output_directory_that_reads_as_a_number_is_a_config_error():
    text = scenario_path("single_source").read_text().replace(
        "output: {}", "output: {directory: 1e5}")
    with pytest.raises(ConfigError, match=r"^output\.directory: "):
        parse_config(text)


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_grid_coarser_than_the_tones_is_a_config_error(tmp_path, capsys,
                                                       command):
    # 3 points over 3 periods of 21 tones: simulate once exited 2, and
    # calibrate exited 0 with every held-out probe read at u = 0.0
    data = yaml.safe_load(scenario_path("single_source").read_text())
    data["comb"]["duration_s"] = 0.000015
    data["sim"]["grid_points"] = 3
    cfg = tmp_path / "coarse.yaml"
    cfg.write_text(dump(data))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sim.grid_points")
    assert not out.exists()


@pytest.mark.parametrize("args, name, edits, named", [
    (["simulate"], "oblique_map", {}, "array.kind"),
    (["simulate"], "single_source", {("array", "m"): 20}, "array.m"),
    (["calibrate"], "single_source", {("array", "m"): 20}, "array.m"),
    (["calibrate"], "single_source",
     {("array", "m"): 1, ("comb", "num_tones"): 1}, "comb.num_tones"),
    (["sweep", "--param", "spacing_m", "--values", "0.006"], "oblique_map",
     {}, "array.kind"),
    (["sweep", "--param", "spacing_m", "--values", "0.006"], "single_source",
     {("array", "m"): 20}, "array.m"),
    (["sweep", "--param", "num_tones", "--values", "21,1"], "single_source",
     {}, "comb.num_tones"),
])
def test_untunable_array_is_a_config_error(tmp_path, capsys, args, name,
                                           edits, named):
    # each once exited 2 with a runtime error from tuning or calibration
    data = yaml.safe_load(scenario_path(name).read_text())
    for (section, key), value in edits.items():
        data[section][key] = value
    cfg = tmp_path / "untunable.yaml"
    cfg.write_text(dump(data))
    assert main([args[0], "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *args[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("args, fits", [
    (["simulate"], 1),
    (["sweep", "--param", "range_m", "--values", "2,8,32"], 3),
    (["calibrate"], 1),
])
def test_each_command_calibrates_once_per_estimate(tmp_path, calls, args,
                                                   fits):
    # simulate once ran a second calibration only to validate the array,
    # and a range sweep one more than its points. run_beamform and
    # calibrate_axis share one fit, so that is what is counted.
    from combbeam import kspace

    count = calls("_fit_calibration", kspace)
    assert main([args[0], "--config", str(scenario_path("single_source")),
                 "--out", str(tmp_path), *args[1:]]) == 0
    assert len(count) == fits


@pytest.mark.parametrize("args, syntheses", [
    (["simulate"], 1),
    (["sweep", "--param", "range_m", "--values", "2,8,32"], 3),
    (["calibrate"], 1),
])
def test_each_command_synthesizes_once_per_estimate(tmp_path, calls, args,
                                                    syntheses):
    # calibrate once synthesized its held-out probes apart from the probes
    # it fits
    from combbeam import kspace

    count = calls("_baseband_field", kspace)
    assert main([args[0], "--config", str(scenario_path("single_source")),
                 "--out", str(tmp_path), *args[1:]]) == 0
    assert len(count) == syntheses


@pytest.mark.parametrize("args, gates", [
    (["simulate"], 1),
    (["sweep", "--param", "range_m", "--values", "2,8,32"], 3),
    (["calibrate"], 1),
])
def test_each_command_gates_each_design_point_once(tmp_path, args, gates):
    # simulate and sweep check their design points before they estimate,
    # and each estimate then finds its point remembered: each design point
    # built (and gated) is one miss of its cache
    from combbeam import kspace

    assert main([args[0], "--config", str(scenario_path("single_source")),
                 "--out", str(tmp_path), *args[1:]]) == 0
    assert kspace._design_point.cache_info().misses == gates


def test_simulate_emit_rf_writes_one_row_per_grid_point(tmp_path):
    text = scenario_path("three_sources").read_text().replace(
        "output: {}", "output: {emit_rf: true}")
    cfg = tmp_path / "rf.yaml"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--grid-points", "1000"]) == 0
    header, rows = _read_csv(tmp_path / "rf.csv")
    assert header == ["time_s", "rf"]
    assert len(rows) == 1000
    # three unit sources on 21 elements: |rf| never exceeds the sum of |a_e|
    assert max(abs(float(r[1])) for r in rows) <= 63.0


def test_simulate_emit_rf_propagates_the_scene_once(tmp_path, calls):
    # rf.csv reads the estimate's own phasors. _phasor_stack is counted in
    # both modules that reach it: kspace, and propagation through
    # scene_element_phasors.
    from combbeam import kspace, propagation

    count = calls("_phasor_stack", propagation, kspace)
    cfg = tmp_path / "rf.yaml"
    cfg.write_text(scenario_path("single_source").read_text().replace(
        "output: {}", "output: {emit_rf: true}"))
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "rf.csv").exists()
    assert len(count) == 1


def test_phase_map_propagates_its_source_once(tmp_path, calls):
    # curvature.csv fits the map phase_map.csv is written from
    from combbeam import conventional

    count = calls("received_phase", conventional)
    assert main(["phase-map", "--config", str(scenario_path("oblique_map")),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "curvature.csv").exists()
    assert len(count) == 1


def _find_peaks_probe_u(config, cal, u):
    """The held-out probe read calibrate once made: FFT envelope, calibrated
    axis, strongest find_peaks peak (no threshold thinning)."""
    comb, geometry, sim = config.comb, config.geometry, config.sim
    ps = scene_element_phasors(probe_scene(u, sim.calibration_range_m),
                               geometry, comb, sim.lo_for(comb), sim.phase_sign)
    out = beamform_envelope(ps, default_time_grid(comb, sim.grid_points))
    out.calibration = cal
    return find_peaks(out, 0.5, 0.0)[0].u


@pytest.mark.parametrize("name", ["single_source", "three_sources"])
@pytest.mark.parametrize("range_m", [None, 17.0])
def test_calibrate_probes_match_the_find_peaks_read(tmp_path, capsys, name,
                                                    range_m):
    data = yaml.safe_load(scenario_path(name).read_text())
    data["sim"].pop("calibration_range_m", None)
    if range_m is not None:
        data["sim"]["calibration_range_m"] = range_m
    cfg = tmp_path / "cal.yaml"
    cfg.write_text(dump(data))
    assert main(["calibrate", "--config", str(cfg)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("probe")]
    config = load_config_file(cfg)
    sim = config.sim
    cal = calibrate_axis(config.geometry, config.comb,
                         sim.lo_for(config.comb), sim.phase_sign,
                         sim.grid_points, sim.calibration_range_m)
    want = []
    for u in (-0.8, -0.35, 0.15, 0.6):
        est = _find_peaks_probe_u(config, cal, u)
        want.append(f"probe u={u!r}: estimated_u={est!r} "
                    f"residual={est - u!r}")
    assert lines == want


_IMPORT_GUARD = """
import json, sys
from combbeam.cli import main, scenario_path
cfg, out = str(scenario_path("single_source")), sys.argv[1]
assert main(["simulate", "--config", cfg, "--out", out]) == 0
assert main(["sweep", "--config", cfg, "--out", out,
             "--param", "range_m", "--values", "2,8"]) == 0
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m == "combbeam.analysis")
import combbeam
from combbeam import brute_force_peak
print(json.dumps({"loaded": loaded, "oracle":
                  brute_force_peak is combbeam.analysis.brute_force_peak}))
"""


def test_cli_imports_neither_scipy_nor_analysis(tmp_path):
    # importing scipy.optimize was once ~0.5 s of every CLI call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "oracle": True}
    assert (tmp_path / "sweep.csv").is_file()
