#!/usr/bin/env python3
"""sfwm-sim benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload design-scan --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs the
same loop untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
Metric names and units are the ones declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import shutil
import statistics
import sys
import types
from pathlib import Path

from harness import import_profile, measure_setup_s, peak_rss_mb, run_loop
from tracing import Tracer

HERE = Path(__file__).resolve().parent
# The import time of one interpreter varies with more than the host's speed:
# over ten groups of interpreters, the median of 5 spread by 19 %, the
# median of 9 by 7 %.
SETUP_INTERPRETERS = 9
IMPORT_PROFILE_INTERPRETERS = 3
MODULES = (
    "cli", "config", "engine", "dispersion", "circuit", "templates",
    "csvio", "svgplot", "modefield", "coincidence",
)


def load_package(root: Path) -> types.SimpleNamespace:
    """Import sfwm_sim from ``root/src`` (and nowhere else)."""
    src = root / "src"
    if not (src / "sfwm_sim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/sfwm_sim under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"sfwm_sim.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: sfwm_sim was imported from {modules['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**modules)


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _path_arg(args, kwargs) -> str:
    return args[0] if args else kwargs["path"]


def install_tracing(tracer: Tracer, sim) -> list[str]:
    """Wrap the public functions of each layer; returns names that were missing."""
    missing = []

    def trace(module, attr, span, on_return=None):
        if getattr(module, attr, None) is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            tracer.install(module, attr, span, on_return)

    def file_bytes(counter):
        return lambda t, args, kwargs, _: t.count(counter, os.path.getsize(_path_arg(args, kwargs)))

    def events(t, args, kwargs, result):
        t.count("coincidence.events", sum(len(ts) for ts in result))

    def read_events(t, args, kwargs, result):
        events(t, args, kwargs, result)
        t.count("coincidence.timestamp_bytes", os.path.getsize(_path_arg(args, kwargs)))

    def svg(t, args, kwargs, _):
        x, series = (args[1], args[2]) if len(args) > 2 else (kwargs["x"], kwargs["series"])
        t.count("svgplot.points", len(x) * len(series))
        t.count("svgplot.bytes_written", os.path.getsize(_path_arg(args, kwargs)))

    trace(sim.cli, "main", "cli.main")
    trace(sim.config, "load_config", "config.load_config")
    for attr in ("parse_spectrum_config", "parse_circuit_config", "parse_gamma_config", "parse_car_config"):
        trace(sim.config, attr, "config.parse")
    trace(sim.engine, "total_mismatch", "engine.total_mismatch")
    trace(sim.engine, "biphoton_spectrum", "engine.biphoton_spectrum",
          lambda t, a, k, r: t.count("engine.samples", r.grid.n_points))
    trace(sim.engine, "band_flux", "engine.band_flux")
    trace(sim.engine, "bandwidth_3db_hz", "engine.bandwidth_3db_hz")
    if not tracer.count_property(sim.engine.SpectralGrid, "omegas", "engine.grid_builds"):
        missing.append("engine.SpectralGrid.omegas")
    trace(sim.templates, "evaluate_circuit", "templates.evaluate_circuit")
    for attr in ("propagate_pump", "segment_contributions", "photon_transmission", "selection_ratio"):
        trace(sim.circuit, attr, f"circuit.{attr}")
    for attr in ("write_spectrum_csv", "write_mismatch_csv", "write_histogram_csv"):
        trace(sim.csvio, attr, f"csvio.{attr}", file_bytes("csvio.bytes_written"))
    trace(sim.svgplot, "write_line_plot", "svgplot.write_line_plot", svg)
    trace(sim.modefield, "read_mode_field_csv", "modefield.read_mode_field_csv")
    trace(sim.modefield, "gamma_report", "modefield.gamma_report")
    trace(sim.coincidence, "synthesize_timestamps", "coincidence.synthesize_timestamps", events)
    trace(sim.coincidence, "write_timestamps_csv", "coincidence.write_timestamps_csv",
          file_bytes("coincidence.timestamp_bytes"))
    trace(sim.coincidence, "read_timestamps_csv", "coincidence.read_timestamps_csv", read_events)
    trace(sim.coincidence, "build_histogram", "coincidence.build_histogram",
          lambda t, a, k, r: t.count("coincidence.matches", int(r.counts.sum())))
    trace(sim.coincidence, "car_from_histogram", "coincidence.car_from_histogram")
    return missing


def layer_metrics(tracer: Tracer, ops: int, imports: dict, overhead_pct: float, untraced) -> dict[str, float]:
    total, own, calls = tracer.totals()
    counts = tracer.counts

    def per_op(span: str) -> float:
        return total.get(span, 0.0) / ops

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m = {f"import.{key}_s": imports[key] for key in ("total", "scipy", "numpy", "yaml")}
    m["config.load_config_s"] = per_op("config.load_config")
    m["config.parse_s"] = per_op("config.parse")
    for f in ("total_mismatch", "biphoton_spectrum", "band_flux", "bandwidth_3db_hz"):
        m[f"engine.{f}_s"] = per_op(f"engine.{f}")
    m["engine.samples"] = counts["engine.samples"] / ops
    m["engine.samples_per_s"] = rate(counts["engine.samples"], total.get("engine.biphoton_spectrum", 0.0))
    m["engine.grid_builds"] = counts["engine.grid_builds"] / ops
    m["templates.evaluate_circuit_s"] = per_op("templates.evaluate_circuit")
    for f in ("propagate_pump", "segment_contributions", "photon_transmission", "selection_ratio"):
        m[f"circuit.{f}_s"] = per_op(f"circuit.{f}")
    m["circuit.propagate_pump_per_eval"] = rate(
        tracer.calls_under("circuit.propagate_pump", "templates.evaluate_circuit"),
        calls.get("templates.evaluate_circuit", 0),
    )
    csv_seconds = 0.0
    for f in ("write_spectrum_csv", "write_mismatch_csv", "write_histogram_csv"):
        m[f"csvio.{f}_s"] = per_op(f"csvio.{f}")
        csv_seconds += total.get(f"csvio.{f}", 0.0)
    m["csvio.bytes_written"] = counts["csvio.bytes_written"] / ops
    m["csvio.mb_per_s"] = rate(counts["csvio.bytes_written"] / 1e6, csv_seconds)
    m["svgplot.write_line_plot_s"] = per_op("svgplot.write_line_plot")
    m["svgplot.points"] = counts["svgplot.points"] / ops
    m["svgplot.bytes_written"] = counts["svgplot.bytes_written"] / ops
    m["modefield.read_mode_field_csv_s"] = per_op("modefield.read_mode_field_csv")
    m["modefield.gamma_report_s"] = per_op("modefield.gamma_report")
    for f in ("synthesize_timestamps", "write_timestamps_csv", "read_timestamps_csv",
              "build_histogram", "car_from_histogram"):
        m[f"coincidence.{f}_s"] = per_op(f"coincidence.{f}")
    for counter in ("events", "matches", "timestamp_bytes"):
        m[f"coincidence.{counter}"] = counts[f"coincidence.{counter}"] / ops
    m["cli.main_s"] = per_op("cli.main")
    m["cli.self_s"] = own.get("cli.main", 0.0) / ops
    m["trace.overhead_pct"] = overhead_pct
    m["host.reference_s"] = statistics.median(untraced.reference_seconds)
    m["host.op_p50_wall_s"] = untraced.op_p50_wall_s
    return m


def main(argv=None) -> int:
    from car_stream import CarStream
    from cli_artifacts import CliArtifacts
    from design_scan import DesignScan

    workloads = {w.name: w for w in (DesignScan, CliArtifacts, CarStream)}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sim = load_package(root)
    end_to_end_units, per_layer_units = declared_metrics(root)
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = measure_setup_s(root, SETUP_INTERPRETERS)
        workload = workloads[args.workload](sim, work, args.seed)
        loops = [run_loop(workload, args.seconds)]
        if args.trace:
            tracer = Tracer()
            missing = install_tracing(tracer, sim)
            for name in missing:
                print(f"perfbench: {name} not found, its metrics read 0", file=sys.stderr)
            loops.append(run_loop(workload, args.seconds, tracer))
            tracer.uninstall()
            tracer.write(HERE / "results" / f"{args.workload}-seed{args.seed}-spans.json")
            overhead = 100.0 * (loops[0].ops_per_s / loops[1].ops_per_s - 1.0)
            imports = import_profile(root, IMPORT_PROFILE_INTERPRETERS)
            values = layer_metrics(tracer, loops[1].attempted, imports, overhead, loops[0])
            units = per_layer_units
        else:
            values = {
                "setup_s": setup_s,
                "op_p50_s": loops[0].op_p50_s,
                "ops_per_s": loops[0].ops_per_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = end_to_end_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    errors = [e for loop in loops for e in loop.errors]
    result = {
        "correct": not errors,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    for label, loop in zip(("untraced", "traced"), loops):
        print(
            f"{label}: {loop.attempted} ops, {loop.failed} failed, "
            f"op p50 {loop.op_p50_s:.6g} s, {loop.ops_per_s:.6g} ops/s at reference speed; "
            f"op p50 {loop.op_p50_wall_s:.6g} s wall, "
            f"reference task median {statistics.median(loop.reference_seconds):.6g} s"
        )
        medians, wall = loop.kind_medians(), loop.kind_medians(loop.wall_seconds)
        for kind in sorted(medians, key=medians.get):
            print(
                f"  {kind:28s} {loop.kinds.count(kind):4d} ops, median {medians[kind]:.4f} s "
                f"({wall[kind]:.4f} s wall)"
            )
        for kind, reason in loop.faults.items():
            print(f"  known fault, {kind}: {reason}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name in units:
        print(f"  {name:40s} {values[name]:>16.6g} {units[name]}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    # Every op of every loop, for working out other statistics afterwards.
    ops = [
        {"kind": k, "wall_s": w, "rescaled_s": r, "reference_after_s": a}
        for loop in loops
        for k, w, r, a in zip(loop.kinds, loop.wall_seconds, loop.op_seconds, loop.reference_seconds)
    ]
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-ops.json").write_text(json.dumps(ops) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
