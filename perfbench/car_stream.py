"""car-stream: three ``car`` commands per round, all through ``cli.main``.

1. ``synthesize``: synthesise a stream at the shipped ``car_plausibility.yaml``
   rates for ``DURATION_S`` seconds (``--seed`` from the run seed) and write
   ``timestamps.csv``, the histogram and the report.
2. ``read_back``: read that ``timestamps.csv`` through ``timestamps_csv:``.
3. ``nan_row``: read a fixed stream with one ``nan`` timestamp; it must exit 3.

Every round repeats the same three commands.  The first round runs before
timing and goes through every check; later rounds must write the same files
and print the same report byte for byte.
"""

from __future__ import annotations

import shutil
from array import array
from pathlib import Path

import numpy as np
import yaml

from harness import Op, OpFailed, file_hashes, invoke, warm_up
from oracles import count_coincidences, histogram_car, read_table, require
from reference import python_task

# Short enough for about thirty ops of each kind in a 30 s run: with the
# 1.2 to 2 s ops of a 30 s stream, ten per kind left op_p50_s spreading by
# 6 to 11 % between runs; a 10 s stream brought it to 2 to 6 %.
DURATION_S = 10.0
NAN_STREAM_S = 2.0
NAN_STREAM_SEED = 20_191_127  # fixed: the faulty input does not depend on the run seed
CAR_SIGMAS = 5.0
KNOWN_FAULT = "timestamp file with a nan row is accepted and exits 0 instead of 3"


class CarStream:
    name = "car-stream"
    reference_task = staticmethod(python_task)

    def describe(self) -> str:
        return f"{DURATION_S:g} s stream at the shipped car_plausibility.yaml rates per round"

    def __init__(self, sim, work: Path, seed: int) -> None:
        self.sim = sim
        self.work = work
        shipped = yaml.safe_load((Path.cwd() / "configs" / "car_plausibility.yaml").read_text())
        self.rates = dict(shipped["synthesize"])
        self.rates["duration_s"] = DURATION_S
        self.bin_width_s = shipped["bin_width_ps"] * 1e-12
        self.window_s = shipped["window_ns"] * 1e-9
        timing = {"bin_width_ps": shipped["bin_width_ps"], "window_ns": shipped["window_ns"]}

        self.synth_dir = work / "synthesize"
        self.synth_config = work / "car_synthesize.yaml"
        self.synth_config.write_text(yaml.safe_dump({**timing, "synthesize": self.rates}))
        self.read_config = work / "car_read_back.yaml"
        self.read_config.write_text(
            yaml.safe_dump({**timing, "timestamps_csv": str(self.synth_dir / "timestamps.csv")})
        )
        self.nan_config = work / "car_nan_row.yaml"
        self.nan_config.write_text(
            yaml.safe_dump({**timing, "timestamps_csv": str(self._write_nan_stream())})
        )
        self.stream_seed = seed
        self.synthesized: dict = {}
        self.verified: tuple | None = None
        warm_up(self.round_ops())

    def _write_nan_stream(self) -> Path:
        """A short correlated stream with one ``signal,nan`` row in its middle."""
        rng = np.random.default_rng(NAN_STREAM_SEED)
        rate_s = self.rates["efficiency_signal"] * self.rates["noise_rate_signal_hz"]
        rate_i = self.rates["efficiency_idler"] * self.rates["noise_rate_idler_hz"]
        pairs = rng.random(int(200 * NAN_STREAM_S)) * NAN_STREAM_S
        signal = np.sort(np.concatenate([pairs, rng.random(int(rate_s * NAN_STREAM_S)) * NAN_STREAM_S]))
        idler = np.sort(np.concatenate([pairs, rng.random(int(rate_i * NAN_STREAM_S)) * NAN_STREAM_S]))
        rows = [f"signal,{t!r}" for t in signal.tolist()]
        rows.insert(len(rows) // 2, "signal,nan")
        rows += [f"idler,{t!r}" for t in idler.tolist()]
        path = self.work / "timestamps_nan_row.csv"
        path.write_text("channel,timestamp_s\n" + "\n".join(rows) + "\n")
        return path

    def round_ops(self) -> list[Op]:
        synth = ["--config", str(self.synth_config), "--seed", str(self.stream_seed)]
        return [
            self._op("synthesize", synth, self.synth_dir, self._judge_synthesized),
            self._op("read_back", ["--config", str(self.read_config)], self.work / "read_back",
                     self._judge_read_back),
            self._op("nan_row", ["--config", str(self.nan_config)], self.work / "nan_row",
                     self._judge_nan_row, KNOWN_FAULT),
        ]

    def _op(self, kind: str, args: list[str], out: Path, judge, known_fault=None) -> Op:
        cli = self.sim.cli
        return Op(
            kind,
            lambda: invoke(cli, ["car", *args, "--out", str(out)]),
            lambda result: judge(out, *result),
            known_fault,
        )

    def _judge_synthesized(self, out: Path, rc: int, stdout: str, stderr: str) -> None:
        if rc != 0:
            raise OpFailed(f"exit {rc}: {stderr.strip()}")
        outputs = (file_hashes(out), stdout)
        if self.verified is not None:
            require(outputs == self.verified, "synthesize: files or report differ from the first round")
            return
        c = self.sim.coincidence
        params = {k: v for k, v in self.rates.items() if k != "duration_s"}
        model = c.RateModel(bin_width_s=self.bin_width_s, **params)
        signal, idler = c.synthesize_timestamps(model, DURATION_S, seed=self.stream_seed)
        read = _read_timestamps(out / "timestamps.csv")
        require(
            np.array_equal(read["signal"], signal) and np.array_equal(read["idler"], idler),
            "timestamps.csv does not hold the synthesised stream exactly",
        )

        counts = read_table(out / "histogram.csv")[:, 1].astype(np.int64)
        expect = count_coincidences(signal, idler, self.bin_width_s, self.window_s)
        require(np.array_equal(counts, expect), "histogram differs from an independent count")
        car, sigma = histogram_car(counts)
        report = _report_fields(stdout)
        require(abs(float(report["CAR"]) - car) <= 0.51e-4, f"CAR {report['CAR']} vs {car:.6f}")
        coincidence = params["pair_rate_hz"] * params["efficiency_signal"] * params["efficiency_idler"]
        singles_s = params["efficiency_signal"] * (
            params["pair_rate_hz"] + params.get("noise_rate_signal_hz", 0.0)
        ) + params.get("dark_rate_signal_hz", 0.0)
        singles_i = params["efficiency_idler"] * (
            params["pair_rate_hz"] + params.get("noise_rate_idler_hz", 0.0)
        ) + params.get("dark_rate_idler_hz", 0.0)
        predicted = 1.0 + coincidence / (5 * singles_s * singles_i * self.bin_width_s)
        printed = float(report["predicted CAR (5-bin window)"].split()[0])
        require(abs(printed - predicted) <= 0.51e-4, f"predicted CAR {printed} vs {predicted:.6f}")
        require(
            abs(car - predicted) <= CAR_SIGMAS * sigma,
            f"CAR {car:.3f} is {abs(car - predicted) / sigma:.1f} sigma from predicted {predicted:.3f}",
        )
        self.synthesized = {
            "histogram": _data_lines(out / "histogram.csv"),
            "events": report["events"],
            "CAR": report["CAR"],
        }
        self.verified = outputs

    def _judge_read_back(self, out: Path, rc: int, stdout: str, stderr: str) -> None:
        try:
            if rc != 0:
                raise OpFailed(f"exit {rc}: {stderr.strip()}")
            report = _report_fields(stdout)
            got = {"histogram": _data_lines(out / "histogram.csv"), "events": report["events"], "CAR": report["CAR"]}
            require(got == self.synthesized, "reading timestamps.csv back changed the histogram or CAR")
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(self.synth_dir, ignore_errors=True)

    def _judge_nan_row(self, out: Path, rc: int, stdout: str, stderr: str) -> None:
        shutil.rmtree(out, ignore_errors=True)
        if rc != 3:
            raise OpFailed(f"exit {rc}")


def _read_timestamps(path: Path) -> dict[str, np.ndarray]:
    """Timestamps by channel, one line at a time so the check stays small in memory."""
    channels = {"signal": array("d"), "idler": array("d")}
    with path.open() as fh:
        require(fh.readline() == "channel,timestamp_s\n", f"{path.name}: bad header")
        for line in fh:
            channel, value = line.split(",")
            channels[channel].append(float(value))
    return {name: np.frombuffer(values, dtype=float) for name, values in channels.items()}


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _report_fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
