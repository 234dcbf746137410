import argparse
import copy
import math
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
import yaml

import sfwm_sim
import sfwm_sim.engine
from sfwm_sim import (
    BiphotonSpectrum,
    ConfigError,
    CouplerNode,
    DomainError,
    MaterialConstants,
    RateModel,
    SpectralGrid,
    angular_frequency_from_wavelength,
)
from sfwm_sim.cli import build_parser, main
from sfwm_sim.config import (
    MAX_GRID_POINTS,
    config_hash,
    load_config,
    parse_car_config,
    parse_circuit_config,
    parse_gamma_config,
    parse_spectrum_config,
)
from sfwm_sim.coincidence import MAX_EVENTS_PER_DRAW, write_timestamps_csv
from sfwm_sim.csvio import (
    HISTOGRAM_HEADER,
    MISMATCH_HEADER,
    SPECTRUM_HEADER,
    read_table,
    write_spectrum_csv,
)
from sfwm_sim.modefield import MODE_FIELD_COLUMNS
from sfwm_sim.presets import packaged_yaml
from sfwm_sim.templates import TEMPLATE_NAMES, build_template, template_doc

from conftest import gaussian_mode, write_mode_field_csv

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PACKAGE_DATA = Path(sfwm_sim.__file__).with_name("data")

SPECTRUM_DOC = {
    "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 1.0},
    "grid": {"span_thz": 20.0, "points": 512},
    "waveguides": [
        {"label": "strip_5mm", "kind": "strip", "length_mm": 5.0},
        {"label": "ridge_15mm", "kind": "shallow_ridge", "length_mm": 15.0},
    ],
}

CIRCUIT_DOC = {
    "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 1.0},
    "grid": {"span_thz": 12.0, "points": 512},
    "band_thz": [2.5, 5.0],
    "input_ports": "in",
    "detection_node": "out",
    "designated_segments": ["wg"],
    "nodes": [
        {"id": "in", "kind": "port", "direction": "input"},
        {"id": "gc", "kind": "grating_coupler", "center_nm": 1552.5},
        {
            "id": "wg",
            "kind": "segment",
            "waveguide": {"kind": "strip", "length_mm": 5.0},
        },
        {"id": "out", "kind": "port", "direction": "output"},
    ],
    "edges": [
        {"from": "in", "to": "gc"},
        {"from": "gc", "to": "wg"},
        {"from": "wg", "to": "out"},
    ],
}


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfigParsing:
    def test_unknown_keys_rejected_with_path(self, tmp_path):
        doc = dict(SPECTRUM_DOC)
        doc["pump"] = dict(doc["pump"], typo_key=1)
        with pytest.raises(ConfigError, match=r"config\.pump.*typo_key"):
            parse_spectrum_config(doc)

    @pytest.mark.parametrize(
        "kind, where, key",
        [
            ("spectrum", "config.waveguides[0]", "n_eff"),
            ("circuit", "config.nodes[2].waveguide", "n_eff"),
            ("circuit", "config.nodes[2].waveguide", "label"),
        ],
    )
    def test_n_eff_and_label_only_where_read(self, kind, where, key):
        # n_eff is a segment-node key; label names spectrum waveguides only.
        doc = copy.deepcopy(SPECTRUM_DOC if kind == "spectrum" else CIRCUIT_DOC)
        wg = doc["waveguides"][0] if kind == "spectrum" else doc["nodes"][2]["waveguide"]
        wg[key] = 9
        parse = parse_spectrum_config if kind == "spectrum" else parse_circuit_config
        with pytest.raises(ConfigError, match=re.escape(where) + r": unknown key.*" + key):
            parse(doc)

    def test_omitted_node_keys_take_the_class_defaults(self):
        doc = copy.deepcopy(CIRCUIT_DOC)
        del doc["nodes"][0]["direction"]
        custom = {
            "kind": "custom",
            "length_mm": 1.0,
            "gamma_per_w_m": 200.0,
            "dispersion": {"beta2_s2_per_m": -3e-26},
        }
        doc["nodes"][2:3] = [
            {"id": "wg", "kind": "segment", "waveguide": {"kind": "strip", "length_mm": 5.0}},
            {"id": "s", "kind": "splitter"},
            {"id": "c", "kind": "segment", "waveguide": custom},
            {"id": "c3", "kind": "segment", "waveguide": custom, "n_eff": 3.0},
        ]
        doc["edges"][2:] = [
            {"from": "wg", "to": "s"},
            {"from": "s", "to": "c", "from_port": 0},
            {"from": "s", "to": "c3", "from_port": 1},
            {"from": "c", "to": "out"},
        ]
        graph = parse_circuit_config(doc).graph
        assert graph.node("in").direction == "input"
        assert graph.node("s").ratio == 0.5
        gc = graph.node("gc")
        assert gc == CouplerNode("gc", gc.center_wavelength_m)
        assert (graph.node("wg").waveguide.n_eff, graph.node("wg").pair_loss_exponent) == (2.4, 1)
        assert graph.node("c").waveguide.n_eff == 2.5
        assert graph.node("c3").waveguide.n_eff == 3.0

    @pytest.mark.parametrize("text", ["2e1", "2E+1", "+20e0", "200e-1", ".2e2", "2.e1"])
    def test_yaml_1_2_float_literals_parse(self, tmp_path, text):
        # PyYAML resolves floats by YAML 1.1 and reads these as strings.
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(SPECTRUM_DOC).replace("span_thz: 20.0", f"span_thz: {text}"))
        assert load_config(path)["grid"]["span_thz"] == text
        assert parse_spectrum_config(load_config(path)).grid == parse_spectrum_config(SPECTRUM_DOC).grid

    @pytest.mark.parametrize("text", ["2e", "e1", "2e1.5", "'0x14'", "nan", "inf", "twenty", "'2 e1'"])
    def test_other_strings_are_not_numbers(self, tmp_path, text):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(SPECTRUM_DOC).replace("span_thz: 20.0", f"span_thz: {text}"))
        with pytest.raises(ConfigError, match=r"config\.grid\.span_thz: expected a number"):
            parse_spectrum_config(load_config(path))

    def test_wavelength_and_frequency_keys_agree(self):
        via_nm = parse_spectrum_config(
            {**SPECTRUM_DOC, "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 1.0}}
        )
        thz = angular_frequency_from_wavelength(1552.5e-9) / (2 * np.pi * 1e12)
        via_thz = parse_spectrum_config(
            {**SPECTRUM_DOC, "pump": {"mode": "degenerate", "wavelength_thz": thz, "power_w": 1.0}}
        )
        assert via_nm.pump.omega_p1 == pytest.approx(via_thz.pump.omega_p1, rel=1e-12)

    def test_power_units(self):
        base = dict(SPECTRUM_DOC)
        w = parse_spectrum_config(
            {**base, "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 0.01}}
        )
        mw = parse_spectrum_config(
            {**base, "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_mw": 10.0}}
        )
        dbm = parse_spectrum_config(
            {**base, "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_dbm": 10.0}}
        )
        assert w.pump.power_w == pytest.approx(mw.pump.power_w, rel=1e-12)
        assert dbm.pump.power_w == pytest.approx(0.01, rel=1e-12)

    def test_beta_unit_conversion(self):
        doc = {
            **SPECTRUM_DOC,
            "waveguides": [
                {
                    "label": "a",
                    "kind": "custom",
                    "length_mm": 5.0,
                    "gamma_per_w_m": 100.0,
                    "dispersion": {"beta2_s2_per_m": -1e-27},
                },
                {
                    "label": "b",
                    "kind": "custom",
                    "length_mm": 5.0,
                    "gamma_per_w_m": 100.0,
                    "dispersion": {"beta2_ps2_per_km": -1.0},
                },
            ],
        }
        run = parse_spectrum_config(doc)
        beta_a = run.waveguides[0][0].dispersion.beta_even[0]
        beta_b = run.waveguides[1][0].dispersion.beta_even[0]
        assert beta_a == pytest.approx(beta_b, rel=1e-12)

    @pytest.mark.parametrize(
        "key, value, omega_c",
        [
            (None, None, None),
            ("lambda_c_nm", 1552.5, angular_frequency_from_wavelength(1552.5 * 1e-9)),
            ("frequency_c_thz", 193.1, 2.0 * math.pi * 193.1 * 1e12),
            ("omega_c_rad_s", 1.2e15, 1.2e15),
        ],
    )
    def test_dispersion_keys_convert_bit_for_bit(self, key, value, omega_c):
        disp = {"beta2_ps2_per_km": -1.1, "beta4_s4_per_m": 2e-49, "beta6_ps6_per_km": 3.3}
        if key is not None:
            disp[key] = value
        doc = {**SPECTRUM_DOC, "waveguides": [{"kind": "strip", "length_mm": 5.0, "dispersion": disp}]}
        model = parse_spectrum_config(doc).waveguides[0][0].dispersion
        assert model.omega_c == omega_c
        assert model.beta_even == (-1.1 * 1e-12**2 / 1e3, 2e-49, 3.3 * 1e-12**6 / 1e3)

    def test_preset_dispersion_is_taken_at_the_pump_average(self):
        for spec, _ in parse_spectrum_config(SPECTRUM_DOC).waveguides:
            assert spec.dispersion.omega_c is None

    def test_dispersion_reference_must_align_with_pump(self, tmp_path):
        doc = {
            **SPECTRUM_DOC,
            "waveguides": [
                {
                    "label": "off",
                    "kind": "custom",
                    "length_mm": 5.0,
                    "gamma_per_w_m": 100.0,
                    "dispersion": {"lambda_c_nm": 1310.0, "beta2_s2_per_m": -1e-27},
                }
            ],
        }
        cfg = write_yaml(tmp_path / "bad.yaml", doc)
        # parse succeeds; evaluating the mismatch trips the alignment check
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_dispersion_reference_single_key_only(self):
        doc = {
            **SPECTRUM_DOC,
            "waveguides": [
                {
                    "label": "x",
                    "kind": "custom",
                    "length_mm": 5.0,
                    "gamma_per_w_m": 100.0,
                    "dispersion": {
                        "lambda_c_nm": 1552.5,
                        "omega_c_rad_s": 1.2e15,
                        "beta2_s2_per_m": -1e-27,
                    },
                }
            ],
        }
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_spectrum_config(doc)

    def test_duplicate_labels_rejected(self):
        doc = {
            **SPECTRUM_DOC,
            "waveguides": [
                {"label": "x", "kind": "strip", "length_mm": 5.0},
                {"label": "x", "kind": "strip", "length_mm": 3.0},
            ],
        }
        with pytest.raises(ConfigError, match="duplicate label"):
            parse_spectrum_config(doc)

    def test_config_hash_stable_under_key_order(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_missing_file_reported(self, tmp_path):
        doc = {"mode_field_csv": str(tmp_path / "none.csv"), "wavelength_nm": 1550.0}
        from sfwm_sim.config import parse_gamma_config

        with pytest.raises(ConfigError, match="does not exist"):
            parse_gamma_config(doc)

    def test_search_path_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.yaml"
        write_yaml(cfg, SPECTRUM_DOC)
        monkeypatch.setenv("SFWM_SIM_CONFIG_PATH", str(tmp_path))
        doc = load_config("run.yaml")
        assert doc["pump"]["wavelength_nm"] == 1552.5

    @pytest.mark.parametrize("all_strip", [False, True], ids=["plain", "all-strip"])
    @pytest.mark.parametrize("template", TEMPLATE_NAMES)
    def test_explicit_graph_matches_template(self, tmp_path, template, all_strip):
        # A template's document, run as a user's config, writes the template
        # run's files line for line, config hash included; only the file
        # names and the report's name line differ.  Plain, that document is
        # the packaged file; with --all-strip it is the strip rewrite.
        doc = template_doc(template, all_strip)
        argv = ["circuit", "--template", template, *(["--all-strip"] if all_strip else [])]
        config = PACKAGE_DATA / f"{template}.yaml"
        if all_strip:
            config = write_yaml(tmp_path / "all_strip.yaml", doc)
        outs = {"config": tmp_path / "config", "template": tmp_path / "template"}
        assert main(["circuit", "--config", str(config), "--out", str(outs["config"])]) == 0
        assert main([*argv, "--out", str(outs["template"])]) == 0
        name = f"{template}_all_strip" if all_strip else template

        def files(out: Path, prefix: str) -> dict[str, list[str]]:
            # Each file's lines, by file name without the prefix.
            return {
                path.name.removeprefix(prefix): path.read_text().splitlines()
                for path in out.iterdir()
            }

        explicit = files(outs["config"], "circuit_")
        run = files(outs["template"], f"{name}_")
        segments = [node.id for node in build_template(template).graph.segments()]
        assert sorted(run) == sorted(
            ["report.txt", "summary.csv", *(f"{segment}_spectrum.csv" for segment in segments)]
        )
        assert explicit["report.txt"][1] == "circuit: circuit"
        assert run["report.txt"][1] == f"circuit: {name}"
        explicit["report.txt"][1] = run["report.txt"][1]
        assert explicit == run
        assert run["summary.csv"][0] == f"# config_sha256={config_hash(doc)}"
        assert run["summary.csv"][1].startswith("# selection_ratio=")

    def test_a_template_run_hashes_the_document_it_parses(self, tmp_path, monkeypatch):
        parsed, parse = [], sfwm_sim.templates.parse_circuit_config

        def recording(doc):
            parsed.append(doc)
            return parse(doc)

        monkeypatch.setattr(sfwm_sim.templates, "parse_circuit_config", recording)
        lines = set()
        for template in TEMPLATE_NAMES:
            for flags in ([], ["--all-strip"]):
                out = tmp_path / f"{template}{len(flags)}"
                assert main(["circuit", "--template", template, *flags, "--out", str(out)]) == 0
                line = next(out.glob("*_summary.csv")).read_text().splitlines()[0]
                assert line == f"# config_sha256={config_hash(parsed[-1])}"
                assert (parsed[-1] is packaged_yaml(template)) == (not flags)
                lines.add(line)
        assert len(parsed) == len(lines) == 4

    @pytest.mark.parametrize("all_strip", [False, True], ids=["plain", "all-strip"])
    @pytest.mark.parametrize("template", TEMPLATE_NAMES)
    def test_every_template_leaf_is_in_the_hash(self, tmp_path, template, all_strip):
        # Each float of the packaged document, and grid.points, changed one at
        # a time in a copy served as the packaged document, changes the
        # config_sha256 line the template run writes.
        packaged = packaged_yaml(template)
        changes = [(("grid", "points"), packaged["grid"]["points"] + 1)]

        def add_floats(node, path):
            for key, value in node.items() if isinstance(node, dict) else enumerate(node):
                if isinstance(value, (dict, list)):
                    add_floats(value, (*path, key))
                elif isinstance(value, float):
                    changes.append(((*path, key), value * 1.001))

        add_floats(packaged, ())
        paths = [path for path, _ in changes]
        assert ("band_thz", 0) in paths
        assert any(path[0] == "pump" and path[-1].startswith("power") for path in paths)
        assert any(path[-1] == "length_mm" for path in paths)
        argv = ["circuit", "--template", template, *(["--all-strip"] if all_strip else [])]

        def hash_line(doc, out: Path) -> str:
            def serve(name):
                return doc if name == template else packaged_yaml(name)

            with pytest.MonkeyPatch.context() as mp:
                for name, module in list(sys.modules.items()):
                    if name.startswith("sfwm_sim") and vars(module).get("packaged_yaml") is packaged_yaml:
                        mp.setattr(module, "packaged_yaml", serve)
                assert main([*argv, "--out", str(out)]) == 0
            return next(out.glob("*_summary.csv")).read_text().splitlines()[0]

        lines = [hash_line(packaged, tmp_path / "packaged")]
        for i, (path, value) in enumerate(changes):
            doc = copy.deepcopy(packaged)
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            lines.append(hash_line(doc, tmp_path / str(i)))
        assert len(set(lines)) == len(lines)

    def test_packaged_app1_holds_the_design_values(self):
        setup = build_template("app1_timebin")
        lengths = {node.id: node.waveguide.length_m for node in setup.graph.segments()}
        assert lengths == {
            "umzi_long": 1.0e-3 + 11.5e-3, "umzi_short": 1.0e-3, "source_strip": 5.0e-3
        }
        # wavelength_rad_s, since wavelength_nm: 1552.5 converts one ulp away.
        assert setup.pump.omega_p1 == angular_frequency_from_wavelength(1552.5e-9)
        assert setup.pump.omega_p1 != angular_frequency_from_wavelength(1552.5 * 1e-9)
        assert setup.pump.power_w == 1.0
        assert setup.band_detuning_hz == (2.5e12, 5.0e12)

    @pytest.mark.parametrize("template", TEMPLATE_NAMES)
    def test_parsing_leaves_the_document_unchanged(self, template):
        doc = load_config(PACKAGE_DATA / f"{template}.yaml")
        before = copy.deepcopy(doc)
        parse_circuit_config(doc)
        assert doc == before

    @pytest.mark.parametrize("all_strip", [False, True])
    @pytest.mark.parametrize("template", TEMPLATE_NAMES)
    def test_a_template_built_twice_is_the_same_setup(self, template, all_strip):
        # The packaged document is read once and shared, so no build may change it.
        first, second = (build_template(template, all_strip) for _ in range(2))
        assert first == second
        assert build_template(template, not all_strip) != first

    def test_unknown_template_rejected(self):
        with pytest.raises(ConfigError, match="unknown template 'app3'"):
            build_template("app3")

    def test_car_config_requires_one_source(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_car_config({"bin_width_ps": 100.0, "window_ns": 4.1})

    def test_omitted_rate_and_material_keys_take_the_class_defaults(self, tmp_path):
        synthesize = {"duration_s": 2.0, "pair_rate_hz": 50.0}
        run = parse_car_config({"bin_width_ps": 100.0, "window_ns": 4.1, "synthesize": synthesize})
        assert run.duration_s == 2.0
        assert run.model == RateModel(pair_rate_hz=50.0, bin_width_s=100e-12)
        field_csv = tmp_path / "mode.csv"
        write_mode_field_csv(field_csv, gaussian_mode(5))
        gamma = parse_gamma_config({"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5})
        assert gamma.constants == MaterialConstants()


class TestSpectrumCommand:
    def test_run_and_round_trip(self, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SPECTRUM_DOC)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        omegas, _, flux = read_table(out / "strip_5mm_spectrum.csv", SPECTRUM_HEADER)
        grid = parse_spectrum_config(SPECTRUM_DOC).grid
        assert omegas.size == 512 and omegas.tobytes() == grid.omegas.tobytes()
        # parse(emit(x)) == x: re-emission is byte-identical
        original = (out / "strip_5mm_spectrum.csv").read_bytes()
        write_spectrum_csv(
            out / "rewrite.csv",
            BiphotonSpectrum(grid, flux),
            original.decode().splitlines()[0].split("=", 1)[1],
        )
        assert (out / "rewrite.csv").read_bytes() == original

    def test_deterministic_output(self, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SPECTRUM_DOC)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["spectrum", "--config", cfg, "--out", str(out1)])
        main(["spectrum", "--config", cfg, "--out", str(out2)])
        for name in ("strip_5mm_spectrum.csv", "ridge_15mm_mismatch.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("source", ["config.grid.points"])
    def test_too_few_grid_points_exit_2_naming_source(self, tmp_path, capsys, source):
        doc = copy.deepcopy(SPECTRUM_DOC)
        doc["grid"]["points"] = 1
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {source}: " in capsys.readouterr().err

    @pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 10**30], ids=["limit+1", "31-digit"])
    @pytest.mark.parametrize("source", ["config.grid.points"])
    def test_too_many_grid_points_exit_2_before_any_sample(
        self, tmp_path, capsys, monkeypatch, source, points
    ):
        def no_samples(grid):
            raise AssertionError(f"built the samples of a {grid.n_points}-point grid")

        monkeypatch.setattr(SpectralGrid, "omegas", property(no_samples))
        doc = copy.deepcopy(SPECTRUM_DOC)
        doc["grid"]["points"] = points
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        message = f"{source}: a grid may have at most {MAX_GRID_POINTS} points, got {points}"
        assert f"config error: {message}" in capsys.readouterr().err

    def test_one_mismatch_evaluation_per_dispersion_model(self, tmp_path, monkeypatch):
        # dk_L is evaluated on one sample of each mirror pair, once per
        # dispersion model on the grid; the spectrum and the mismatch CSV of
        # every waveguide share it.  The shipped config has four waveguides:
        # the strip and three shallow ridges of one model.
        evaluated = []
        linear_mismatch = sfwm_sim.engine.linear_mismatch

        def counted(model, omega, pump):
            evaluated.append(np.size(omega))
            return linear_mismatch(model, omega, pump)

        monkeypatch.setattr(sfwm_sim.engine, "linear_mismatch", counted)
        sfwm_sim.engine._upper_linear_mismatch.cache_clear()
        config = REPO_CONFIGS / "degenerate_bandwidth_contrast.yaml"
        assert main(["spectrum", "--config", str(config), "--out", str(tmp_path)]) == 0
        n_points = parse_spectrum_config(load_config(config)).grid.n_points
        assert evaluated == [n_points - n_points // 2] * 2

    @pytest.mark.parametrize(
        "config, lines",
        [
            # The strip's flux is 0.993 of its peak at both edges of the 16 THz grid.
            ("nondegenerate_bandwidth_contrast.yaml", [
                "strip_5mm: 3 dB bandwidth > 16.000 THz (the grid span) -> strip_5mm_spectrum.csv",
                "ridge_8mm: 3 dB bandwidth 6.714 THz -> ridge_8mm_spectrum.csv",
                "ridge_17mm: 3 dB bandwidth 6.702 THz -> ridge_17mm_spectrum.csv",
            ]),
            ("degenerate_bandwidth_contrast.yaml", [
                "strip_5mm: 3 dB bandwidth 58.865 THz -> strip_5mm_spectrum.csv",
                "ridge_3mm: 3 dB bandwidth 2.569 THz -> ridge_3mm_spectrum.csv",
                "ridge_8mm: 3 dB bandwidth 1.846 THz -> ridge_8mm_spectrum.csv",
                "ridge_15mm: 3 dB bandwidth 1.416 THz -> ridge_15mm_spectrum.csv",
            ]),
        ],
        ids=["nondegenerate", "degenerate"],
    )
    def test_width_past_the_grid_reads_as_a_lower_bound(self, tmp_path, capsys, config, lines):
        config = REPO_CONFIGS / config
        assert main(["spectrum", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mismatch_first", [False, True], ids=["spectrum-first", "mismatch-first"])
    def test_mismatch_overflow_exits_4_in_either_order(
        self, tmp_path, capsys, monkeypatch, mismatch_first
    ):
        if mismatch_first:
            spectrum = sfwm_sim.cli.biphoton_spectrum

            def after_mismatch(spec, pump, grid):
                sfwm_sim.cli.total_mismatch(spec, pump, grid.omegas)
                return spectrum(spec, pump, grid)

            monkeypatch.setattr(sfwm_sim.cli, "biphoton_spectrum", after_mismatch)
        # beta4 * dw^4 overflows in the dispersion series on every grid sample off the pump.
        dispersion = {"beta2_s2_per_m": 1e-24, "beta4_s4_per_m": 1e300}
        waveguide = {"label": "wild", "kind": "strip", "length_mm": 5.0, "dispersion": dispersion}
        cfg = write_yaml(tmp_path / "run.yaml", {**SPECTRUM_DOC, "waveguides": [waveguide]})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith(
            "domain error: strip waveguide of length 0.005 m: the phase mismatch or gain "
            "overflows float64 ("
        )

    def test_svg_emitted(self, tmp_path):
        cfg = write_yaml(tmp_path / "run.yaml", SPECTRUM_DOC)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--svg"]) == 0
        svg = (out / "spectra.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_bad_yaml_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump: [unclosed\n")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_config_exits_2(self):
        assert main(["spectrum", "--config", "/does/not/exist.yaml"]) == 2


class TestCircuitCommand:
    def test_template_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["circuit", "--template", "app1_timebin", "--out", str(out)]) == 0
        summary = (out / "app1_timebin_summary.csv").read_text()
        assert "source_strip" in summary and "umzi_long" in summary
        report = (out / "app1_timebin_report.txt").read_text()
        assert "selection ratio" in report and "inter-pulse delay" in report

    @pytest.mark.parametrize("template", ["app1_timebin", "app2_path"])
    def test_each_band_flux_integrated_once(self, tmp_path, monkeypatch, template):
        original, integrated = sfwm_sim.engine.band_flux, []

        def counting(spectrum, band):
            integrated.append(spectrum)
            return original(spectrum, band)

        for name, module in list(sys.modules.items()):
            if name.startswith("sfwm_sim") and getattr(module, "band_flux", None) is original:
                monkeypatch.setattr(module, "band_flux", counting)
        assert main(["circuit", "--template", template, "--out", str(tmp_path)]) == 0
        # One call per segment, each on a spectrum of its own.
        assert len(integrated) == len(build_template(template).graph.segments())
        assert len({id(spectrum) for spectrum in integrated}) == len(integrated)

    def test_all_strip_variant(self, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["circuit", "--template", "app1_timebin", "--all-strip", "--out", str(out)]
        ) == 0
        report = (out / "app1_timebin_all_strip_report.txt").read_text()
        ratio = float(
            [l for l in report.splitlines() if l.startswith("selection ratio")][0]
            .split(":")[1]
        )
        assert ratio <= 2.0

    def test_custom_graph_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "circ.yaml", CIRCUIT_DOC)
        out = tmp_path / "out"
        assert main(["circuit", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "circuit_wg_spectrum.csv").exists()
        report = (out / "circuit_report.txt").read_text()
        assert "selection ratio" in report and "selection threshold" in report

    @pytest.mark.parametrize(
        "extra_key, argv",
        [({"all_strip": True}, []), ({"all_strip": False}, []), ({}, ["--all-strip"])],
    )
    def test_all_strip_on_explicit_graph_exits_2(self, tmp_path, capsys, extra_key, argv):
        cfg = write_yaml(tmp_path / "circ.yaml", {**CIRCUIT_DOC, **extra_key})
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path), *argv]) == 2
        assert ("--all-strip" if argv else "all_strip") in capsys.readouterr().err

    def test_requires_some_input(self):
        assert main(["circuit"]) == 2

    @pytest.mark.parametrize(
        "argv, delays",
        [
            (["--template", "app1_timebin"], ["source_strip: 99.74 ps"]),
            (["--template", "app1_timebin", "--all-strip"], ["source_strip: 92.06 ps"]),
            (["--template", "app2_path"], []),
            (["--config", str(REPO_CONFIGS / "custom_circuit.yaml")], ["source_strip: 99.74 ps"]),
        ],
        ids=["app1", "app1-all-strip", "app2", "custom"],
    )
    def test_delay_line_per_designated_segment_reached_by_several_pulses(
        self, tmp_path, capsys, argv, delays
    ):
        assert main(["circuit", *argv, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        prefix = "inter-pulse delay at "
        assert [line.removeprefix(prefix) for line in lines if line.startswith(prefix)] == delays

    @pytest.mark.parametrize("template", TEMPLATE_NAMES)
    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("nodes", 2, "bogus"), 1, "config.nodes[2]: unknown key(s) ['bogus']"),
            (("edges", 4, "to_port"), "zero", "config.edges[4].to_port: expected an integer"),
            (("designated_segments",), ["nope"], "config.designated_segments[0]: unknown node"),
        ],
        ids=["unknown-key", "to-port", "designated"],
    )
    def test_packaged_template_gets_the_config_checks(
        self, tmp_path, capsys, template, path, value, where
    ):
        doc = load_config(PACKAGE_DATA / f"{template}.yaml")
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert where in capsys.readouterr().err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("edges", 4, "to_port"), 5,
             "config.edges[4].to_port: 'umzi_merge' has no input slot 5"),
            (("nodes", 3, "id"), "umzi_long",
             "config.nodes[3].id: duplicate node id 'umzi_long'"),
        ],
        ids=["missing-slot", "duplicate-id"],
    )
    def test_graph_errors_name_their_field(self, tmp_path, capsys, path, value, where):
        doc = load_config(PACKAGE_DATA / "app1_timebin.yaml")
        doc[path[0]][path[1]][path[2]] = value
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {where}\n" in capsys.readouterr().err

    def test_a_cycle_names_the_edges(self, tmp_path, capsys):
        doc = load_config(PACKAGE_DATA / "app1_timebin.yaml")
        # The merge's free output back into the split's free input.
        doc["edges"].append({"from": "umzi_merge", "from_port": 1, "to": "umzi_split", "to_port": 1})
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        # Only the loop split -> arms -> merge is named, not what lies downstream of it.
        assert capsys.readouterr().err == (
            "config error: config.edges: circuit graph is cyclic around "
            "['bin_phase', 'umzi_long', 'umzi_merge', 'umzi_short', 'umzi_split']\n"
        )
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "dropped",
        [[("merge", "source_strip")], [("merge", "source_strip"), ("source_strip", "to_filters")]],
        ids=["unfed", "unwired"],
    )
    def test_a_segment_the_pump_cannot_reach_names_its_node(self, tmp_path, capsys, dropped):
        doc = load_config(REPO_CONFIGS / "custom_circuit.yaml")
        doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) not in dropped]
        cfg = write_yaml(tmp_path / "run.yaml", doc)
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: config.nodes[7]: segment 'source_strip' receives no pump "
            "from input ports ['pump_in']\n"
        )
        assert not list((tmp_path / "out").iterdir())



class TestGammaCommand:
    def test_report_and_scale_check(self, tmp_path):
        field_csv = tmp_path / "mode.csv"
        write_mode_field_csv(field_csv, gaussian_mode(31))
        cfg = write_yaml(
            tmp_path / "gamma.yaml",
            {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5},
        )
        out = tmp_path / "out"
        assert main(
            ["gamma", "--config", cfg, "--out", str(out), "--verify-scale"]
        ) == 0
        report = (out / "gamma_report.txt").read_text()
        assert "gamma:" in report and "scale invariance" in report

    def test_malformed_grid_exits_3(self, tmp_path):
        field_csv = tmp_path / "mode.csv"
        field_csv.write_text("x_m,y_m,ex_re\n0,0,1\n")
        cfg = write_yaml(
            tmp_path / "gamma.yaml",
            {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5},
        )
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_quadrature_data_error_names_the_file(self, tmp_path, capsys):
        # A mode with no +z power: the shipped field with its hy_re column zeroed.
        lines = (REPO_CONFIGS / "modefields" / "gaussian_21x21.csv").read_text().splitlines()
        column = lines[0].split(",").index("hy_re")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[column] = "0"
        field_csv = tmp_path / "no_power.csv"
        field_csv.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
        cfg = write_yaml(
            tmp_path / "gamma.yaml", {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5}
        )
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {field_csv}: mode carries no power in +z"
        )

    def test_nan_cell_exits_3_naming_line(self, tmp_path, capsys):
        field_csv = tmp_path / "mode.csv"
        write_mode_field_csv(field_csv, gaussian_mode(5))
        lines = field_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)
        field_csv.write_text("\n".join(lines) + "\n")
        cfg = write_yaml(
            tmp_path / "gamma.yaml",
            {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5},
        )
        assert main(["gamma", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert f"{field_csv}:4: ex_re cell 'nan' is not finite" in capsys.readouterr().err


CAR_SYNTH_DOC = {
    "bin_width_ps": 1000.0,
    "window_ns": 41.0,
    "synthesize": {
        "duration_s": 5.0,
        "pair_rate_hz": 1000.0,
        "efficiency_signal": 0.5,
        "efficiency_idler": 0.5,
        "noise_rate_signal_hz": 1000.0,
        "noise_rate_idler_hz": 1000.0,
    },
}


class TestCarCommand:
    def _synth_doc(self):
        return copy.deepcopy(CAR_SYNTH_DOC)

    def test_synthesized_run_and_reingest(self, tmp_path):
        cfg = write_yaml(tmp_path / "car.yaml", self._synth_doc())
        out = tmp_path / "out"
        assert main(["car", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        centers, counts = read_table(out / "histogram.csv", HISTOGRAM_HEADER)
        assert counts.sum() > 0
        # re-ingest the emitted timestamps and reproduce the histogram
        doc2 = {
            "bin_width_ps": 1000.0,
            "window_ns": 41.0,
            "timestamps_csv": str(out / "timestamps.csv"),
        }
        cfg2 = write_yaml(tmp_path / "car2.yaml", doc2)
        out2 = tmp_path / "out2"
        assert main(["car", "--config", cfg2, "--out", str(out2)]) == 0
        centers2, counts2 = read_table(out2 / "histogram.csv", HISTOGRAM_HEADER)
        np.testing.assert_array_equal(counts, counts2)

    def test_seed_changes_output(self, tmp_path):
        cfg = write_yaml(tmp_path / "car.yaml", self._synth_doc())
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["car", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["car", "--config", cfg, "--out", str(out2), "--seed", "1"])
        main(["car", "--config", cfg, "--out", str(out3), "--seed", "2"])
        assert (out1 / "timestamps.csv").read_bytes() == (out2 / "timestamps.csv").read_bytes()
        assert (out1 / "timestamps.csv").read_bytes() != (out3 / "timestamps.csv").read_bytes()

    def test_negative_seed_exits_2_naming_flag(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "car.yaml", self._synth_doc())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["car", "--config", cfg, "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_timestamp_file_exits_3(self, tmp_path):
        ts = tmp_path / "ts.csv"
        ts.write_text("channel,timestamp_s\n")
        cfg = write_yaml(
            tmp_path / "car.yaml",
            {"bin_width_ps": 1000.0, "window_ns": 41.0, "timestamps_csv": str(ts)},
        )
        assert main(["car", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("key", ["pair_rate_hz", "noise_rate_signal_hz"])
    def test_nan_rate_exits_2_naming_it(self, tmp_path, capsys, key):
        doc = self._synth_doc()
        doc["synthesize"][key] = float("nan")
        cfg = write_yaml(tmp_path / "car.yaml", doc)
        assert main(["car", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config.synthesize.{key}: expected a number, got NaN" in err

    @pytest.mark.parametrize("key", ["duration_s", "pair_rate_hz"])
    def test_missing_synthesize_key_exits_2_naming_it(self, tmp_path, capsys, key):
        doc = self._synth_doc()
        del doc["synthesize"][key]
        cfg = write_yaml(tmp_path / "car.yaml", doc)
        assert main(["car", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config.synthesize: missing required key {key!r}" in err

    def test_draw_past_the_event_limit_rejected_while_parsing(self):
        doc = self._synth_doc()
        doc["synthesize"] = {"duration_s": float(MAX_EVENTS_PER_DRAW + 1), "pair_rate_hz": 1.0}
        message = f"config.synthesize.duration_s: .* more than the {MAX_EVENTS_PER_DRAW} a draw"
        with pytest.raises(DomainError, match=message):
            parse_car_config(doc)
        doc["synthesize"]["duration_s"] = float(MAX_EVENTS_PER_DRAW)
        assert parse_car_config(doc).duration_s == MAX_EVENTS_PER_DRAW

    def test_shipped_600_s_config_is_under_the_event_limit(self):
        run = parse_car_config(load_config(REPO_CONFIGS / "car_plausibility.yaml"), REPO_CONFIGS)
        assert run.duration_s == 600.0

    def test_bad_window_exits_4(self, tmp_path):
        doc = self._synth_doc()
        doc["window_ns"] = 41.5
        cfg = write_yaml(tmp_path / "car.yaml", doc)
        assert main(["car", "--config", cfg, "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("circuit", ("edges", 1, "from_port"), "one"),
        ("circuit", ("edges", 1, "to_port"), "zero"),
        ("circuit", ("edges", 1, "to_port"), 0.5),
        ("circuit", ("nodes", 2, "pair_loss_exponent"), "two"),
        ("circuit", ("nodes", 2, "n_eff"), "high"),
        ("circuit", ("band_thz", 0), "abc"),
        ("car", ("guard_bins",), "two"),
        ("circuit", ("nodes",), 5),
        ("circuit", ("edges",), 5),
        ("circuit", ("input_ports",), [5]),
    ],
)
def test_bad_config_value_exits_2_naming_field(tmp_path, capsys, command, path, value):
    if command == "circuit":
        doc = copy.deepcopy(CIRCUIT_DOC)
    else:
        doc = {"bin_width_ps": 1000.0, "window_ns": 41.0, "timestamps_csv": "ts.csv"}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    field = [key for key in path if isinstance(key, str)][-1]
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path, value, code, where",
    [
        ("circuit", ("nodes", 0, "direction"), "sideways", 2, "config.nodes[0]: port 'in'"),
        ("circuit", ("nodes", 1), {"id": "gc", "kind": "splitter", "ratio": 1.5}, 2,
         "config.nodes[1]: splitter 'gc'"),
        ("circuit", ("nodes", 2, "waveguide", "length_mm"), -5.0, 4,
         "config.nodes[2].waveguide: length_m must be > 0"),
        ("spectrum", ("waveguides", 1, "length_mm"), -5.0, 4,
         "config.waveguides[1]: length_m must be > 0"),
        ("car", ("synthesize", "efficiency_signal"), 1.5, 4,
         "config.synthesize: efficiency_signal must be in [0, 1]"),
        ("gamma", ("n0",), -1, 4, "config: n0 must be > 0"),
        ("spectrum", ("grid", "span_thz"), 0, 4, "config.grid.span_thz = 0: half_span must be > 0"),
        ("circuit", ("grid", "span_thz"), 1e-30, 2,
         "config.grid.span_thz = 1e-30: omega_min must be < omega_max"),
        ("car", ("guard_bins",), -1, 2, "config.guard_bins: must be >= 0, got -1"),
        ("car", ("synthesize", "pair_rate_hz"), math.inf, 2,
         "config.synthesize.pair_rate_hz: expected a finite number, got inf"),
        ("car", ("window_ns",), math.inf, 2, "config.window_ns: expected a finite number, got inf"),
        ("spectrum", ("pump", "power_w"), math.inf, 2,
         "config.pump.power_w: expected a finite number, got inf"),
        ("spectrum", ("pump", "mode"), "non_degenerate", 2,
         "config.pump.mode: unknown pump mode 'non_degenerate'"),
        ("spectrum", ("waveguides", 1, "label"), "../escaped", 2,
         "config.waveguides[1].label: '../escaped' may use only"),
        ("spectrum", ("waveguides", 1, "label"), "", 2, "config.waveguides[1].label: '' may"),
        ("spectrum", ("waveguides", 0, "label"), "a b", 2, "config.waveguides[0].label: 'a b'"),
        ("circuit", ("band_thz",), [5.0, 2.5], 4, "config.band_thz: empty detuning band"),
        ("circuit", ("band_thz",), [2.5, 50.0], 4,
         "config.band_thz: [2.5, 50.0] THz reaches past the grid's detuning span of +-6 THz"),
        ("circuit", ("detection_node",), "nope", 2, "config.detection_node: unknown node 'nope'"),
        ("circuit", ("designated_segments",), ["wg", "nope"], 2,
         "config.designated_segments[1]: unknown node 'nope'"),
        ("circuit", ("designated_segments",), ["gc"], 2,
         "config.designated_segments[0]: 'gc' is not a segment"),
        ("circuit", ("input_ports",), "gc", 2, "config.input_ports: 'gc' is not an input port"),
        ("circuit", ("input_ports",), ["in", "in"], 2,
         "config.input_ports: a degenerate pump has one line, so one input port"),
        ("circuit", ("nodes", 2, "waveguide", "kind"), "shallow-ridge", 2,
         "config.nodes[2].waveguide.kind: no preset for kind 'shallow-ridge'; "
         "the kinds are ('custom', 'strip', 'shallow_ridge')"),
        ("spectrum", ("waveguides", 1, "kind"), "shallow-ridge", 2,
         "config.waveguides[1].kind: no preset for kind 'shallow-ridge'"),
        ("circuit", ("nodes", 2, "n_eff"), -1.0, 2,
         "config.nodes[2].n_eff: n_eff must be > 0, got -1.0"),
    ],
    ids=["direction", "ratio", "segment-length", "waveguide-length", "efficiency", "n0",
         "grid-span", "grid-span-below-resolution", "guard-bins", "inf-pair-rate", "inf-window",
         "inf-power", "pump-mode-spelling", "label-escapes", "label-empty", "label-space",
         "empty-band", "band-past-grid", "detection-node", "designated-missing",
         "designated-not-segment", "input-port", "degenerate-two-ports", "segment-kind-spelling",
         "waveguide-kind-spelling", "n_eff"],
)
def test_value_error_names_config_path(
    tmp_path, capsys, monkeypatch, command, path, value, code, where
):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("computed a spectrum before the config was checked")

    # Every case is caught while parsing, so nothing is computed or written.
    for module, name in (
        (sfwm_sim.cli, "biphoton_spectrum"),
        (sfwm_sim.cli, "total_mismatch"),
        (sfwm_sim.circuit, "biphoton_spectrum"),
    ):
        monkeypatch.setattr(module, name, no_spectrum)
    field_csv = tmp_path / "mode.csv"
    write_mode_field_csv(field_csv, gaussian_mode(5))
    doc = copy.deepcopy(
        {
            "circuit": CIRCUIT_DOC,
            "spectrum": SPECTRUM_DOC,
            "car": CAR_SYNTH_DOC,
            "gamma": {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5},
        }[command]
    )
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, edit, code, where",
    [
        ("spectrum", {"pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_dbm": 4000.0}},
         2, "config.pump.power_dbm: 4000.0 is out of range"),
        ("car", {"synthesize": {**CAR_SYNTH_DOC["synthesize"], "pair_rate_hz": 10**400}}, 2,
         "config.synthesize.pair_rate_hz: expected a finite number, got an integer too large"),
        ("car", {"window_ns": 1.0e300, "bin_width_ps": 1.0}, 4,
         "config.bin_width_ps, config.window_ns: window 1.0000000000000001e+291 s over bin "
         "width 1e-12 s needs 1e+303 bins, more than the 4194304 a histogram may have"),
        ("car", {"bin_width_ps": 50.0, "window_ns": 5.8,
                 "synthesize": {"duration_s": 1.0e300, "pair_rate_hz": 1000.0}}, 4,
         "config.synthesize.duration_s: 1e+300 s at up to 1000.0 Hz expects 1e+303 events in "
         "one draw, more than the 16777216 a draw may have"),
        ("gamma", {"wavelength_nm": 1.0e-300}, 2, "config.wavelength_nm: 1e-300 is out of range"),
        ("gamma", {"wavelength_thz": 1.0e300}, 2, "config.wavelength_thz: 1e+300 is out of range"),
        ("gamma", {"wavelength_nm": 0.0}, 4,
         "config.wavelength_nm: wavelength must be > 0 m, got 0.0"),
        ("gamma", {"wavelength_nm": 1552.5, "n0": 1.0e300}, 4,
         "gamma overflows float64 at n0 = 1e+300, n2_m2_per_w = 4.5e-18"),
        ("gamma", {"wavelength_nm": 1552.5, "n2_m2_per_w": 1.0e300}, 4,
         "gamma overflows float64 at n0 = 3.48, n2_m2_per_w = 1e+300"),
    ],
    ids=["power-dbm-overflow", "401-digit-integer", "histogram-too-large", "events-too-many",
         "wavelength-nm-overflow", "wavelength-thz-overflow", "wavelength-nm-zero",
         "gamma-n0-overflow", "gamma-n2-overflow"],
)
def test_number_out_of_range_exits_naming_it(tmp_path, capsys, command, edit, code, where):
    gamma_doc = {"mode_field_csv": str(REPO_CONFIGS / "modefields" / "gaussian_21x21.csv")}
    doc = {**{"spectrum": SPECTRUM_DOC, "car": CAR_SYNTH_DOC, "gamma": gamma_doc}[command], **edit}
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert where in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python parses integers of any length"
)
def test_integer_past_the_digit_limit_exits_2_naming_the_file(tmp_path, capsys):
    text = yaml.safe_dump(CAR_SYNTH_DOC)
    text = re.sub(r"pair_rate_hz: .*", f"pair_rate_hz: {'9' * 5001}", text)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    assert main(["car", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {cfg}: cannot load config (" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["pump: &p {power_w: *p}\n", "1: one\npump: two\n"],
    ids=["alias-inside-its-anchor", "mixed-key-types"],
)
def test_config_that_cannot_be_hashed_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: config cannot be hashed (" in capsys.readouterr().err


def test_data_file_name_too_long_to_look_up_exits_2(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "gamma.yaml", {"mode_field_csv": "9" * 400, "wavelength_nm": 1552.5})
    assert main(["gamma", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error: config.mode_field_csv: file " in capsys.readouterr().err


def test_output_name_too_long_to_write_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(SPECTRUM_DOC)
    doc["waveguides"][0]["label"] = "x" * 400
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and f"{'x' * 400}_spectrum.csv" in err


def test_pump_power_past_float64_gain_exits_4(tmp_path, capsys):
    doc = {**SPECTRUM_DOC, "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 1e297}}
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "the phase mismatch or gain overflows float64" in capsys.readouterr().err


@pytest.mark.parametrize("node_id", ["src,strip", "src/strip"])
def test_unsafe_node_id_exits_2(tmp_path, capsys, node_id):
    doc = copy.deepcopy(CIRCUIT_DOC)
    doc["nodes"][2]["id"] = doc["edges"][1]["to"] = doc["edges"][2]["from"] = node_id
    doc["designated_segments"] = [node_id]
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config.nodes[2].id" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_config_exits_2_naming_path(tmp_path, capsys, kind):
    path = tmp_path / "run.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"pump:\n  mode: degenerate \xff\n")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gamma", "car"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8", "one-x"])
def test_unreadable_data_file_exits_3_naming_path(tmp_path, capsys, command, kind):
    data = tmp_path / "data.csv"
    if kind == "directory":
        data.mkdir()
    elif kind == "non-utf8":
        data.write_bytes(b"x_m,y_m\n\xff\n")
    else:  # a full grid of well-formed rows that all share x = 0: too few for a mode field
        rows = [f"0,{y}" + ",1" * (len(MODE_FIELD_COLUMNS) - 2) for y in range(4)]
        data.write_text("\n".join([",".join(MODE_FIELD_COLUMNS), *rows]) + "\n")
    if command == "gamma":
        doc = {"mode_field_csv": str(data), "wavelength_nm": 1552.5}
    else:
        doc = {"bin_width_ps": 1000.0, "window_ns": 41.0, "timestamps_csv": str(data)}
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert str(data) in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command", ["circuit", "spectrum"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command, below):
    if command == "circuit":
        argv = ["circuit", "--template", "app1_timebin"]
    else:
        argv = ["spectrum", "--config", write_yaml(tmp_path / "run.yaml", SPECTRUM_DOC)]
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if below else taken
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(out) in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.filterwarnings("error")
def test_sinh_overflow_exits_4_naming_parameters(tmp_path, capsys):
    doc = {
        "pump": {"mode": "degenerate", "wavelength_nm": 1552.5, "power_w": 20.0},
        "grid": {"span_thz": 200.0, "points": 4096},
        "waveguides": [{"label": "long_strip", "kind": "strip", "length_mm": 200.0}],
    }
    cfg = write_yaml(tmp_path / "run.yaml", doc)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    for part in ("strip", "200 mm", "gamma*P", "undepleted-pump"):
        assert part in err


def test_unsorted_timestamps_exit_3_naming_line(tmp_path, capsys):
    ts = tmp_path / "ts.csv"
    ts.write_text("channel,timestamp_s\nsignal,0.5\nidler,0.1\nsignal,0.2\n")
    doc = {"bin_width_ps": 1000.0, "window_ns": 41.0, "timestamps_csv": str(ts)}
    cfg = write_yaml(tmp_path / "car.yaml", doc)
    assert main(["car", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert f"{ts}:4: signal timestamp 0.2" in capsys.readouterr().err


def test_console_script_wired():
    # The child imports the same sfwm_sim as this test, installed or not.
    src = str(Path(sfwm_sim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "sfwm_sim.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "sfwm-sim" in proc.stdout


NOTE_PREFIXES = ("summary -> ", "plot -> ")


def _lines_and_notes(stdout: str) -> tuple[list[str], list[str]]:
    """Split stdout into report lines and the trailing ``summary ->``/``plot ->`` notes."""
    lines = stdout.splitlines()
    n = len(lines)
    while n and lines[n - 1].startswith(NOTE_PREFIXES):
        n -= 1
    return lines[:n], lines[n:]


def _assert_csvs_carry_hash(out, doc_hash: str) -> int:
    """Every table but the raw timestamp stream starts with the hash; returns their count."""
    tables = [p for p in out.glob("*.csv") if p.name != "timestamps.csv"]
    for path in tables:
        assert path.read_text().splitlines()[0] == f"# config_sha256={doc_hash}", path.name
    return len(tables)


class TestOneCommandShape:
    """main writes every report and prints; each command returns its lines and notes."""

    def _case(self, tmp_path, command):
        """(doc, argv without --out, report name, expected notes given out)."""
        if command == "circuit_template":
            doc = packaged_yaml("app2_path")
            return doc, ["circuit", "--template", "app2_path", "--svg"], "app2_path_report.txt", [
                "summary -> {out}/app2_path_summary.csv"
            ]
        if command == "circuit_graph":
            cfg = write_yaml(tmp_path / "circ.yaml", CIRCUIT_DOC)
            return CIRCUIT_DOC, ["circuit", "--config", cfg, "--svg"], "circuit_report.txt", [
                "summary -> {out}/circuit_summary.csv"
            ]
        if command == "gamma":
            field_csv = tmp_path / "mode.csv"
            write_mode_field_csv(field_csv, gaussian_mode(11))
            doc = {"mode_field_csv": str(field_csv), "wavelength_nm": 1552.5}
            cfg = write_yaml(tmp_path / "gamma.yaml", doc)
            return doc, ["gamma", "--config", cfg, "--verify-scale"], "gamma_report.txt", []
        cfg = write_yaml(tmp_path / "car.yaml", CAR_SYNTH_DOC)
        return CAR_SYNTH_DOC, ["car", "--config", cfg, "--seed", "5"], "car_report.txt", []

    @pytest.mark.parametrize("command", ["circuit_template", "circuit_graph", "gamma", "car"])
    def test_report_is_hash_then_stdout_lines(self, tmp_path, capsys, command):
        doc, argv, report_name, notes = self._case(tmp_path, command)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        lines, printed_notes = _lines_and_notes(capsys.readouterr().out)
        doc_hash = config_hash(doc)
        assert lines
        assert (out / report_name).read_text() == (
            f"# config_sha256={doc_hash}\n" + "\n".join(lines) + "\n"
        )
        assert printed_notes == [note.format(out=out) for note in notes]
        assert [p.name for p in out.glob("*_report.txt")] == [report_name]
        assert (_assert_csvs_carry_hash(out, doc_hash) > 0) == (command != "gamma")

    def test_spectrum_writes_no_report(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "run.yaml", SPECTRUM_DOC)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--svg"]) == 0
        lines, notes = _lines_and_notes(capsys.readouterr().out)
        assert [line.split(":")[0] for line in lines] == ["strip_5mm", "ridge_15mm"]
        assert notes == [f"plot -> {out / 'spectra.svg'}"]
        assert not list(out.glob("*_report.txt"))
        assert _assert_csvs_carry_hash(out, config_hash(SPECTRUM_DOC)) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--config", "gamma.yaml", "--svg"],
            ["car", "--config", "car.yaml", "--svg"],
            ["spectrum", "--config", "run.yaml", "--seed", "1"],
            ["spectrum", "--config", "run.yaml", "--grid-points", "513"],
        ],
    )
    def test_flag_only_on_the_command_that_reads_it(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--config", str(REPO_CONFIGS / "degenerate_bandwidth_contrast.yaml")],
        ["spectrum", "--config", str(REPO_CONFIGS / "nondegenerate_bandwidth_contrast.yaml")],
        ["circuit", "--template", "app2_path"],
    ],
    ids=["degenerate", "nondegenerate", "app2_path"],
)
def test_detuning_column_is_offset_from_pump_average(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    if argv[0] == "spectrum":
        omega_c = parse_spectrum_config(load_config(argv[2])).pump.omega_c
    else:
        omega_c = build_template(argv[2]).pump.omega_c
    spectra, mismatches = sorted(out.glob("*_spectrum.csv")), sorted(out.glob("*_mismatch.csv"))
    assert spectra and bool(mismatches) == (argv[0] == "spectrum")
    for paths, header in ((spectra, SPECTRUM_HEADER), (mismatches, MISMATCH_HEADER)):
        for path in paths:
            omegas, detuning_thz, _ = read_table(path, header)
            expected = (omegas - omega_c) / (2.0 * np.pi) / 1e12
            assert detuning_thz.tobytes() == expected.tobytes(), path.name


class TestConfigRelativePaths:
    @pytest.mark.parametrize("via_env", [False, True])
    @pytest.mark.parametrize("command", ["gamma", "car"])
    def test_data_path_read_from_config_directory(self, tmp_path, monkeypatch, command, via_env):
        config_dir = tmp_path / "configs"
        (config_dir / "data").mkdir(parents=True)
        if command == "gamma":
            write_mode_field_csv(config_dir / "data" / "mode.csv", gaussian_mode(11))
            doc = {"mode_field_csv": "data/mode.csv", "wavelength_nm": 1552.5}
        else:
            ts = np.arange(1, 200) * 1e-3
            write_timestamps_csv(config_dir / "data" / "ts.csv", ts, ts + 2e-9)
            doc = {"bin_width_ps": 1000.0, "window_ns": 41.0, "timestamps_csv": "data/ts.csv"}
        write_yaml(config_dir / "run.yaml", doc)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        if via_env:
            monkeypatch.setenv("SFWM_SIM_CONFIG_PATH", str(config_dir))
            config = "run.yaml"
        else:
            config = str(config_dir / "run.yaml")
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0

    def test_shipped_gamma_config_runs_from_another_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = REPO_CONFIGS / "gamma_gaussian.yaml"
        assert main(["gamma", "--config", str(config), "--out", "out"]) == 0
        assert f"mode field: {REPO_CONFIGS / 'modefields' / 'gaussian_21x21.csv'}" in (
            capsys.readouterr().out
        )


def test_config_and_template_together_exit_2(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "circ.yaml", CIRCUIT_DOC)
    out = tmp_path / "out"
    argv = ["circuit", "--config", cfg, "--template", "app1_timebin", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--config" in err and "--template" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "keys",
    [{"template": "app1_timebin"}, {"template": "app2_path", "all_strip": True}],
    ids=["template", "template+all_strip"],
)
def test_template_config_keys_exit_2(tmp_path, capsys, keys):
    # A template runs from --template/--all-strip only; a config is an explicit graph.
    alone = write_yaml(tmp_path / "alone.yaml", keys)
    assert main(["circuit", "--config", alone, "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err == (
        f"config error: config: unknown key(s) {sorted(keys)}; "
        "a template runs only from --template NAME [--all-strip]\n"
    )
    beside = write_yaml(tmp_path / "beside.yaml", {**CIRCUIT_DOC, **keys})
    assert main(["circuit", "--config", beside, "--out", str(tmp_path / "b")]) == 2
    assert f"config error: config: unknown key(s) {sorted(keys)}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("key, value", [("pump.power_w", 0.0), ("detection_node", "pump_in")])
def test_circuit_without_any_band_flux_exits_4(tmp_path, capsys, key, value):
    doc = load_config(REPO_CONFIGS / "custom_circuit.yaml")
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    cfg = write_yaml(tmp_path / "circ.yaml", doc)
    assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "domain error: no segment delivers flux in the selection band" in captured.err
    assert "selection threshold" not in captured.out


FLAG = re.compile(r"--[a-z][a-z-]*")


def _synopsis_flags(synopsis: str) -> dict[str, set[str]]:
    """The flags of each ``sfwm-sim <command> ...`` line of a synopsis."""
    flags = {}
    for line in synopsis.splitlines():
        words = line.split(maxsplit=2)
        if len(words) == 3 and words[0] == "sfwm-sim":
            flags[words[1]] = set(FLAG.findall(words[2]))
    return flags


def test_each_flag_is_documented_where_it_is_parsed():
    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    readme = (REPO_CONFIGS.parent / "README.md").read_text()
    readme_synopsis = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    assert _synopsis_flags(sfwm_sim.cli.__doc__) == parsed
    assert _synopsis_flags(readme_synopsis) == parsed


def _example_lines() -> dict[str, list[str]]:
    """The ``sfwm-sim ...`` example lines of README.md's code blocks and of the
    header comment of each shipped config and packaged template, by file;
    synopsis lines are not examples."""
    readme = (REPO_CONFIGS.parent / "README.md").read_text()
    sources = {"README.md": "".join(readme.split("```")[1::2]).splitlines()}
    templates = [PACKAGE_DATA / f"{name}.yaml" for name in TEMPLATE_NAMES]
    for cfg in [*sorted(REPO_CONFIGS.glob("*.yaml")), *templates]:
        header = takewhile(lambda line: line.startswith("#"), cfg.read_text().splitlines())
        sources[cfg.name] = [line.lstrip("# ") for line in header]
    return {
        source: [
            line.split("#")[0].strip()
            for line in lines
            if line.startswith("sfwm-sim ") and not re.search(r"[\[(]|FILE", line)
        ]
        for source, lines in sources.items()
    }


EXAMPLES = _example_lines()


def test_every_shipped_config_shows_an_example():
    assert all(EXAMPLES.values()), EXAMPLES


@pytest.mark.parametrize(
    "line", sorted({line for lines in EXAMPLES.values() for line in lines})
)
def test_documented_example_parses(line):
    args = build_parser().parse_args(line.split()[1:])
    if args.config is not None:
        assert (REPO_CONFIGS.parent / args.config).is_file()
    if getattr(args, "template", None) is not None:
        assert args.template in TEMPLATE_NAMES


@pytest.mark.parametrize(
    "path",
    [*sorted(REPO_CONFIGS.glob("*.yaml")), *sorted(PACKAGE_DATA.glob("*.yaml"))],
    ids=lambda path: path.name,
)
def test_libyaml_and_python_loaders_read_the_same_document(path):
    text = path.read_text(encoding="utf-8")
    python_doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert isinstance(python_doc, dict) and python_doc
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    libyaml_doc = yaml.load(text, Loader=yaml.CSafeLoader)
    assert libyaml_doc == python_doc
    assert config_hash(libyaml_doc) == config_hash(python_doc)
