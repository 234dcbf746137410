"""Command-line front end.

    sfwm-sim spectrum --config FILE [--out DIR] [--svg]
    sfwm-sim circuit  (--config FILE | --template NAME) [--all-strip] [--out DIR] [--svg]
    sfwm-sim gamma    --config FILE [--out DIR] [--verify-scale]
    sfwm-sim car      --config FILE [--out DIR] [--seed N]

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric domain error.
`SFWM_SIM_CONFIG_PATH` adds search directories for bare config file names;
relative data paths in a config resolve against the config file's directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coincidence import (
    CAR_PEAK_BINS,
    build_histogram,
    car_from_histogram,
    predict_rates,
    read_timestamps_csv,
    synthesize_timestamps,
    write_timestamps_csv,
)
from .config import (
    config_hash,
    load_config,
    locate_config,
    parse_car_config,
    parse_gamma_config,
    parse_spectrum_config,
)
from .csvio import write_histogram_csv, write_mismatch_csv, write_spectrum_csv, write_table
from .dispersion import wavelength_from_angular_frequency
from .engine import bandwidth_3db_hz, biphoton_spectrum, total_mismatch
from .errors import ConfigError, DataError, DomainError
from .modefield import gamma_report, read_mode_field_csv
from .svgplot import write_line_plot
from .templates import TEMPLATE_NAMES, evaluate_circuit, parse_run, template_doc


def _out_dir(out: str) -> Path:
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the output directory ({exc.strerror})") from exc
    return out


# Each cmd_* parses the doc, writes its own tables and plots into `out` and
# returns (report file name or None, report lines, trailing notes); `main`
# writes the report, then prints the lines and the notes.


def cmd_spectrum(args, doc: dict, doc_hash: str, out: Path):
    run = parse_spectrum_config(doc)
    grid = run.grid
    lines, notes = [], []
    svg_series: dict[str, np.ndarray] = {}
    for spec, label in run.waveguides:
        spectrum = biphoton_spectrum(spec, run.pump, grid)
        delta_k = total_mismatch(spec, run.pump, grid.omegas)
        write_spectrum_csv(out / f"{label}_spectrum.csv", spectrum, doc_hash)
        write_mismatch_csv(out / f"{label}_mismatch.csv", grid, delta_k, doc_hash)
        flux = spectrum.flux_density
        peak = flux.max()
        width = f"{bandwidth_3db_hz(spectrum) / 1e12 if peak > 0 else 0.0:.3f} THz"
        if peak > 0 and max(flux[0], flux[-1]) >= 0.5 * peak:  # a -3 dB point lies off the grid
            width = f"> {width} (the grid span)"
        lines.append(f"{label}: 3 dB bandwidth {width} -> {label}_spectrum.csv")
        svg_series[label] = spectrum.flux_density
    if args.svg:
        write_line_plot(
            out / "spectra.svg",
            grid.detunings_hz() / 1e12,
            svg_series,
            "detuning (THz)",
            "flux density (photons/s/Hz)",
            "biphoton spectra",
        )
        notes.append(f"plot -> {out / 'spectra.svg'}")
    return None, lines, notes


SELECTION_THRESHOLD = 10.0
SUMMARY_HEADER = ("segment", "designated", "pump_powers_w", "transmission", "band_flux_per_s")


def _circuit_report_lines(report) -> list[str]:
    setup = report.setup
    verdict = "met" if report.ratio >= SELECTION_THRESHOLD else "NOT met"
    lines = [
        f"circuit: {setup.name}",
        f"pump mode: {setup.pump.mode}",
        f"selection band (detuning): {setup.band_detuning_hz[0] / 1e12:g} "
        f"to {setup.band_detuning_hz[1] / 1e12:g} THz",
        f"designated segments: {', '.join(setup.designated_segments)}",
        f"selection ratio: {report.ratio:.6g}",
        f"selection threshold (>= {SELECTION_THRESHOLD:g}): {verdict}",
    ]
    for segment_id, delay_s in report.inter_pulse_delays_s.items():
        lines.append(f"inter-pulse delay at {segment_id}: {delay_s * 1e12:.2f} ps")
    return lines


def cmd_circuit(args, doc: dict, doc_hash: str, out: Path):
    setup = parse_run(doc, args.template, args.all_strip)
    report = evaluate_circuit(setup)
    name = setup.name
    designated = set(setup.designated_segments)

    contribs = report.contributions
    for c in contribs:
        spectrum_path = out / f"{name}_{c.segment_id}_spectrum.csv"
        write_spectrum_csv(spectrum_path, c.spectrum, doc_hash)
    summary_path = out / f"{name}_summary.csv"
    write_table(
        summary_path,
        SUMMARY_HEADER,
        (
            [c.segment_id for c in contribs],
            [int(c.segment_id in designated) for c in contribs],
            ["/".join(map(repr, c.pump_powers_w)) for c in contribs],
            [c.transmission for c in contribs],
            [report.band_fluxes[c.segment_id] for c in contribs],
        ),
        (f"config_sha256={doc_hash}", f"selection_ratio={report.ratio!r}"),
    )
    if args.svg:
        series = {c.segment_id: c.spectrum.flux_density for c in contribs}
        write_line_plot(
            out / f"{name}_contributions.svg",
            setup.grid.detunings_hz() / 1e12,
            series,
            "detuning (THz)",
            "flux density (photons/s/Hz)",
            f"{name}: per-segment contributions",
        )
    return f"{name}_report.txt", _circuit_report_lines(report), [f"summary -> {summary_path}"]


def cmd_gamma(args, doc: dict, doc_hash: str, out: Path):
    run = parse_gamma_config(doc, args.config.parent)
    grid = read_mode_field_csv(run.mode_field_csv)
    try:  # the reader names path:line; the quadrature's errors get the path too
        report = gamma_report(grid, run.omega, run.constants)
        if args.verify_scale:
            # One field at a time: only one field is ever held at both scales.
            grid = replace(grid, e_field=grid.e_field * 3.0)
            grid = replace(grid, h_field=grid.h_field * 3.0)
            scaled = gamma_report(grid, run.omega, run.constants)
    except DataError as exc:
        raise DataError(f"{run.mode_field_csv}: {exc}") from exc
    lines = [
        f"mode field: {run.mode_field_csv}",
        f"wavelength: {wavelength_from_angular_frequency(run.omega) * 1e9:.2f} nm",
        f"core |E|^4 integral: {report['core_quartic_integral']:.6e} V^4/m^2",
        f"poynting integral: {report['poynting_integral_w']:.6e} W",
        f"gamma: {report['gamma_per_w_m']:.4f} /(W m)",
    ]
    if args.verify_scale:
        rel = abs(scaled["gamma_per_w_m"] - report["gamma_per_w_m"]) / report["gamma_per_w_m"]
        lines.append(f"scale invariance (fields x3): relative change {rel:.3e}")
    return "gamma_report.txt", lines, []


def cmd_car(args, doc: dict, doc_hash: str, out: Path):
    run = parse_car_config(doc, args.config.parent)
    predicted = None
    if run.model is not None:
        signal, idler = synthesize_timestamps(run.model, run.duration_s, seed=args.seed)
        write_timestamps_csv(out / "timestamps.csv", signal, idler)
        predicted = predict_rates(run.model)
    else:
        signal, idler = read_timestamps_csv(run.timestamps_csv)
    hist = build_histogram(signal, idler, run.bin_width_s, run.window_s)
    car = car_from_histogram(hist, guard_bins=run.guard_bins)
    write_histogram_csv(out / "histogram.csv", hist, doc_hash)

    center, half = hist.central_bin, CAR_PEAK_BINS // 2
    lines = [
        f"events: {signal.size} signal, {idler.size} idler",
        f"histogram: {hist.n_bins} bins x {hist.bin_width_s * 1e12:.1f} ps",
        f"peak window bins: [{center - half}, {center + half}] "
        f"({CAR_PEAK_BINS} bins centered on {center})",
        f"guard bins: {run.guard_bins}",
        f"CAR: {car:.4f}",
    ]
    if predicted is not None:
        lines.append(
            f"predicted CAR ({CAR_PEAK_BINS}-bin window): {predicted['car']:.4f} "
            f"(singles {predicted['singles_signal_hz']:.1f}/{predicted['singles_idler_hz']:.1f} Hz)"
        )
    return "car_report.txt", lines, []


def non_negative_int(text: str) -> int:
    """An integer flag value >= 0, such as the seed numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwm-sim",
        description="SFWM biphoton spectra, circuit noise budgets and CAR analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, config_required: bool = True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=config_required, help="YAML run configuration")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.set_defaults(func=func)
        return p

    p_spectrum = command("spectrum", cmd_spectrum, "phase mismatch and biphoton spectra")
    p_spectrum.add_argument("--svg", action="store_true", help="also write SVG plots")

    p_circuit = command(
        "circuit", cmd_circuit, "per-segment circuit contributions", config_required=False
    )
    p_circuit.add_argument("--svg", action="store_true", help="also write SVG plots")
    p_circuit.add_argument("--template", choices=TEMPLATE_NAMES, default=None)
    p_circuit.add_argument(
        "--all-strip", action="store_true", help="force every waveguide to strip parameters"
    )

    p_gamma = command("gamma", cmd_gamma, "effective nonlinear coefficient from mode fields")
    p_gamma.add_argument(
        "--verify-scale", action="store_true", help="check amplitude-scale invariance"
    )

    p_car = command("car", cmd_car, "coincidence histogram and CAR")
    p_car.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed for synthetic data")
    return parser


def _config_doc(args) -> dict:
    """The document the run parses and hashes: the config file's, or ``template_doc``'s
    for ``--template NAME [--all-strip]``.  Rebinds ``args.config`` to the located file."""
    template = getattr(args, "template", None)
    if template is not None:
        if args.config is not None:
            raise ConfigError("circuit: give --config FILE or --template NAME, not both")
        return template_doc(template, args.all_strip)
    if args.config is None:
        raise ConfigError("circuit: give --config FILE or --template NAME")
    if getattr(args, "all_strip", False):
        raise ConfigError("circuit: --all-strip applies only to --template, not to --config")
    args.config = locate_config(args.config)
    return load_config(args.config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _config_doc(args)
        doc_hash = config_hash(doc)
        out = _out_dir(args.out)
        report_name, lines, notes = args.func(args, doc, doc_hash, out)
        if report_name is not None:
            (out / report_name).write_text(
                f"# config_sha256={doc_hash}\n" + "\n".join(lines) + "\n"
            )
        for line in lines + notes:
            print(line)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a file the system refuses, e.g. an output named by a long label
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
