import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfwm_sim import (
    CoincidenceHistogram,
    DataError,
    DomainError,
    RateModel,
    build_histogram,
    car_from_histogram,
    predict_rates,
    synthesize_timestamps,
)
from sfwm_sim import coincidence
from sfwm_sim.coincidence import (
    CAR_PEAK_BINS,
    MAX_EVENTS_PER_DRAW,
    MAX_HISTOGRAM_BINS,
    draw_rates,
    histogram_bins,
    read_timestamps_csv,
    write_timestamps_csv,
)


class TestBuildHistogram:
    def test_identical_streams_all_in_central_bin(self):
        ts = np.sort(np.random.default_rng(0).random(500) * 10.0)
        hist = build_histogram(ts, ts, 1e-9, 21e-9)
        center = hist.central_bin
        assert hist.counts[center] == 500
        off = np.delete(hist.counts, center)
        # only self-pairs coincide exactly; accidentals are possible but rare
        assert off.sum() <= 4

    def test_empty_idler_stream(self):
        ts = np.linspace(0, 1, 100)
        hist = build_histogram(ts, np.array([]), 1e-9, 11e-9)
        assert hist.counts.sum() == 0

    def test_total_count_matches_brute_force(self):
        rng = np.random.default_rng(12)
        signal = np.sort(rng.random(300) * 1e-3)
        idler = np.sort(rng.random(300) * 1e-3)
        window = 41e-9
        hist = build_histogram(signal, idler, 1e-9, window)
        brute = 0
        for t in signal:
            brute += int(
                np.count_nonzero((idler >= t - window / 2) & (idler < t + window / 2))
            )
        assert int(hist.counts.sum()) == brute

    def test_flat_for_independent_poisson_streams(self):
        rng = np.random.default_rng(77)
        r1, r2, duration = 50e3, 40e3, 5.0
        signal = np.sort(rng.random(rng.poisson(r1 * duration)) * duration)
        idler = np.sort(rng.random(rng.poisson(r2 * duration)) * duration)
        tau = 1e-9
        hist = build_histogram(signal, idler, tau, 41 * tau)
        expected = r1 * r2 * tau * duration
        sigma = math.sqrt(expected)
        assert np.all(np.abs(hist.counts - expected) < 5 * sigma)
        mean = hist.counts.mean()
        assert abs(mean - expected) < 3 * sigma / math.sqrt(hist.n_bins)

    def test_unsorted_input_rejected(self):
        with pytest.raises(DataError, match=r"^signal timestamps are not sorted ascending$"):
            build_histogram(np.array([2.0, 1.0]), np.array([0.5]), 1e-9, 11e-9)

    def test_stamps_whose_difference_overflows_are_checked_without_overflow(self):
        huge = np.finfo(np.float64).max
        hist = build_histogram(np.array([-huge, huge]), np.array([0.0]), 1e-9, 41e-9)
        assert hist.counts.sum() == 0
        with pytest.raises(DataError, match="not sorted"):
            build_histogram(np.array([huge, -huge]), np.array([0.0]), 1e-9, 41e-9)

    def test_window_must_be_bin_multiple(self):
        ts = np.linspace(0, 1, 10)
        with pytest.raises(DomainError):
            build_histogram(ts, ts, 1e-9, 10.5e-9)

    @pytest.mark.parametrize("bin_width_s", [1e-12, 1e-320])
    def test_window_past_the_bin_limit_rejected_before_allocating(self, bin_width_s):
        ts = np.linspace(0, 1, 10)
        with pytest.raises(DomainError, match=f"more than the {MAX_HISTOGRAM_BINS} a histogram"):
            build_histogram(ts, ts, bin_width_s, 1e291)
        assert histogram_bins(1.0, float(MAX_HISTOGRAM_BINS)) == MAX_HISTOGRAM_BINS

    def test_right_edge_excluded(self):
        signal = np.array([0.0])
        idler = np.array([10.5e-9])  # exactly +window/2
        hist = build_histogram(signal, idler, 1e-9, 21e-9)
        assert hist.counts.sum() == 0


def single_pass_counts(signal, idler, bin_width_s, window_s):
    """``build_histogram``'s counts as one pass over all signal events (the reference)."""
    n_bins = histogram_bins(bin_width_s, window_s)
    half = 0.5 * window_s
    counts = np.zeros(n_bins, dtype=np.int64)
    if signal.size and idler.size:
        lo = np.searchsorted(idler, signal - half, side="left")
        hi = np.searchsorted(idler, signal + half, side="left")
        matches = hi - lo
        total = int(matches.sum())
        if total:
            sig_idx = np.repeat(np.arange(signal.size), matches)
            offsets = np.arange(total) - np.repeat(np.cumsum(matches) - matches, matches)
            diffs = idler[np.repeat(lo, matches) + offsets] - signal[sig_idx]
            bin_idx = np.floor((diffs + half) / bin_width_s).astype(np.int64)
            keep = (bin_idx >= 0) & (bin_idx < n_bins)
            counts = np.bincount(bin_idx[keep], minlength=n_bins).astype(np.int64)
    return counts


# Stamps on a 0.25 grid, so that differences fall exactly on bin edges too.
stamps = st.lists(st.integers(0, 80), max_size=40).map(lambda ks: np.sort(ks) * 0.25)


class TestBlockedHistogram:
    @settings(max_examples=300, deadline=None)
    @given(
        signal=stamps,
        idler=stamps,
        block=st.integers(1, 6),
        n_bins=st.integers(1, 12),
        bin_width_s=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @example(signal=np.array([]), idler=np.array([1.0]), block=1, n_bins=4, bin_width_s=1.0)
    @example(signal=np.array([1.0]), idler=np.array([]), block=1, n_bins=4, bin_width_s=1.0)
    @example(signal=np.array([1.0]), idler=np.array([1.0]), block=1, n_bins=4, bin_width_s=1.0)
    @example(  # block edges between events that share idler matches
        signal=np.array([1.0, 1.0, 1.25, 2.0]), idler=np.array([0.5, 1.0, 1.5, 2.5]),
        block=2, n_bins=4, bin_width_s=0.5,
    )
    def test_counts_match_the_single_pass(self, signal, idler, block, n_bins, bin_width_s):
        window_s = n_bins * bin_width_s
        want = single_pass_counts(signal, idler, bin_width_s, window_s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coincidence, "HISTOGRAM_BLOCK", block)
            got = build_histogram(signal, idler, bin_width_s, window_s).counts
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("channel", ["signal", "idler"])
    def test_a_step_back_across_a_block_edge_is_rejected(self, monkeypatch, channel):
        monkeypatch.setattr(coincidence, "HISTOGRAM_BLOCK", 4)
        streams = {"signal": np.arange(8.0), "idler": np.arange(8.0)}
        streams[channel][4] = 2.5  # the first stamp of the second block steps back
        with pytest.raises(DataError, match=f"{channel} timestamps are not sorted"):
            build_histogram(streams["signal"], streams["idler"], 1.0, 8.0)

    def test_holds_one_block_not_the_stream(self):
        rng = np.random.default_rng(2)
        signal = np.sort(rng.random(2_100_000) * 100.0)
        idler = np.sort(signal + rng.normal(0.0, 1e-9, signal.size))  # about one match each
        tracemalloc.start()
        try:
            hist = build_histogram(signal, idler, 1e-10, 12.1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() >= signal.size
        # One block's arrays (4.3 MB here), not the whole stream's at once
        # (137 MB).
        assert peak < 10e6, peak


class TestCar:
    def _flat_hist(self, value=7, n=41):
        edges = np.arange(n + 1) * 1e-9 - (n / 2) * 1e-9
        return CoincidenceHistogram(1e-9, edges, np.full(n, value))

    def test_flat_histogram_car_is_one(self):
        assert car_from_histogram(self._flat_hist()) == 1.0

    def test_car_invariant_under_count_scaling(self):
        h1 = self._flat_hist(3)
        h9 = self._flat_hist(27)
        assert car_from_histogram(h1) == car_from_histogram(h9)

    def test_single_loaded_bin_gives_infinity(self):
        counts = np.zeros(41, dtype=int)
        counts[20] = 1000
        edges = np.arange(42) * 1e-9 - 20.5e-9
        hist = CoincidenceHistogram(1e-9, edges, counts)
        assert car_from_histogram(hist) == math.inf

    def test_zero_histogram_rejected(self):
        counts = np.zeros(41, dtype=int)
        edges = np.arange(42) * 1e-9 - 20.5e-9
        hist = CoincidenceHistogram(1e-9, edges, counts)
        with pytest.raises(DataError):
            car_from_histogram(hist)

    def test_too_few_bins_rejected(self):
        edges = np.arange(12) * 1e-9 - 5.5e-9
        hist = CoincidenceHistogram(1e-9, edges, np.ones(11, dtype=int))
        with pytest.raises(DomainError):
            car_from_histogram(hist)

    def test_peak_window_must_fit(self):
        # Every edge lies after zero delay, so the window centred there hangs off the start.
        edges = np.arange(42) * 1e-9 + 1e-9
        hist = CoincidenceHistogram(1e-9, edges, np.full(41, 7))
        with pytest.raises(DomainError, match="falls outside the histogram"):
            car_from_histogram(hist)

    def test_guard_bins_excluded_from_accidentals(self):
        counts = np.full(41, 10)
        counts[20] = 100
        counts[17] = counts[23] = 50  # shoulders
        edges = np.arange(42) * 1e-9 - 20.5e-9
        hist = CoincidenceHistogram(1e-9, edges, counts)
        plain = car_from_histogram(hist)
        guarded = car_from_histogram(hist, guard_bins=1)
        assert guarded > plain  # shoulders dropped from the accidental mean


class TestPredictRates:
    def test_zero_pair_rate_gives_unity_car(self):
        model = RateModel(pair_rate_hz=0.0, bin_width_s=1e-9, noise_rate_signal_hz=1e4,
                          noise_rate_idler_hz=1e4)
        assert predict_rates(model)["car"] == pytest.approx(1.0)

    def test_unit_efficiency_no_noise(self):
        rate, tau = 5e4, 1e-9
        model = RateModel(pair_rate_hz=rate, bin_width_s=tau)
        out = predict_rates(model)
        assert out["singles_signal_hz"] == pytest.approx(rate)
        assert out["singles_idler_hz"] == pytest.approx(rate)
        assert out["car"] == pytest.approx(1.0 + 1.0 / (CAR_PEAK_BINS * rate * tau), rel=1e-12)

    def test_measured_style_singles_echo(self):
        # configuration tuned to the published-style 11.6/15.0 kHz singles
        model = RateModel(
            pair_rate_hz=50.0,
            bin_width_s=100e-12,
            efficiency_signal=0.1,
            efficiency_idler=0.1,
            noise_rate_signal_hz=115_950.0,
            noise_rate_idler_hz=149_950.0,
        )
        out = predict_rates(model)
        assert out["singles_signal_hz"] == pytest.approx(11_600.0)
        assert out["singles_idler_hz"] == pytest.approx(15_000.0)

    def test_monotone_in_pair_rate(self):
        cars = [
            predict_rates(
                RateModel(pair_rate_hz=r, bin_width_s=1e-9, noise_rate_signal_hz=2e4,
                          noise_rate_idler_hz=2e4, efficiency_signal=0.3,
                          efficiency_idler=0.3)
            )["car"]
            for r in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(cars, cars[1:]))

    def test_zero_bin_width_rejected(self):
        with pytest.raises(DomainError):
            RateModel(pair_rate_hz=1.0, bin_width_s=0.0)

    @pytest.mark.parametrize("name", ["pair_rate_hz", "noise_rate_idler_hz", "dark_rate_signal_hz"])
    def test_nan_rate_rejected(self, name):
        rates = {"pair_rate_hz": 1.0, name: float("nan")}
        with pytest.raises(DomainError, match=f"{name} must be finite and >= 0, got nan"):
            RateModel(bin_width_s=1e-9, **rates)

    @pytest.mark.parametrize("name", ["pair_rate_hz", "noise_rate_signal_hz", "dark_rate_idler_hz"])
    def test_infinite_rate_rejected(self, name):
        rates = {"pair_rate_hz": 1.0, name: math.inf}
        with pytest.raises(DomainError, match=f"{name} must be finite and >= 0, got inf"):
            RateModel(bin_width_s=1e-9, **rates)


class TestSynthesize:
    def test_fixed_seed_reproducible(self):
        model = RateModel(pair_rate_hz=1e3, bin_width_s=1e-9, efficiency_signal=0.5,
                          efficiency_idler=0.5, noise_rate_signal_hz=1e3,
                          noise_rate_idler_hz=1e3)
        a = synthesize_timestamps(model, 2.0, seed=42)
        b = synthesize_timestamps(model, 2.0, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = synthesize_timestamps(model, 2.0, seed=43)
        assert a[0].size != c[0].size or not np.array_equal(a[0], c[0])

    def test_lossless_pairs_match_exactly(self):
        model = RateModel(pair_rate_hz=2e3, bin_width_s=1e-9)
        signal, idler = synthesize_timestamps(model, 5.0, seed=3)
        np.testing.assert_array_equal(signal, idler)

    def test_noise_only_car_near_one(self):
        model = RateModel(pair_rate_hz=0.0, bin_width_s=100e-9,
                          noise_rate_signal_hz=5e4, noise_rate_idler_hz=5e4)
        signal, idler = synthesize_timestamps(model, 20.0, seed=8)
        hist = build_histogram(signal, idler, 100e-9, 4100e-9)
        car = car_from_histogram(hist)
        # sigma of the CAR estimate from Poisson counting in both regions
        peak_total = hist.counts[hist.central_bin - 2 : hist.central_bin + 3].sum()
        acc_total = hist.counts.sum() - peak_total
        sigma = car * math.sqrt(1.0 / peak_total + 1.0 / acc_total)
        assert abs(car - 1.0) < 3.0 * sigma

    def test_closed_loop_against_predictor(self):
        model = RateModel(
            pair_rate_hz=2e3,
            bin_width_s=10e-9,
            efficiency_signal=0.25,
            efficiency_idler=0.25,
            noise_rate_signal_hz=2e4,
            noise_rate_idler_hz=2e4,
        )
        duration = 120.0
        signal, idler = synthesize_timestamps(model, duration, seed=21)
        hist = build_histogram(signal, idler, model.bin_width_s, 410e-9)
        car = car_from_histogram(hist)
        expected = predict_rates(model)["car"]
        peak_total = hist.counts[hist.central_bin - 2 : hist.central_bin + 3].sum()
        acc_total = hist.counts.sum() - peak_total
        sigma = expected * math.sqrt(1.0 / peak_total + 1.0 / acc_total)
        assert abs(car - expected) < 3.0 * sigma

    def test_duration_must_be_positive(self):
        model = RateModel(pair_rate_hz=1.0, bin_width_s=1e-9)
        with pytest.raises(DomainError):
            synthesize_timestamps(model, 0.0, seed=0)

    @pytest.mark.parametrize("duration_s", [MAX_EVENTS_PER_DRAW + 1.0, 1e300])
    def test_draw_past_the_event_limit_rejected_before_drawing(self, monkeypatch, duration_s):
        model = RateModel(pair_rate_hz=0.5, bin_width_s=1e-9, noise_rate_idler_hz=1.0)
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
        with pytest.raises(DomainError, match=f"more than the {MAX_EVENTS_PER_DRAW} a draw"):
            synthesize_timestamps(model, duration_s, seed=0)
        assert draw_rates(model, float(MAX_EVENTS_PER_DRAW)) == (0.5, 0.0, 1.0)


class TestTimestampCsv:
    def test_round_trip(self, tmp_path):
        model = RateModel(pair_rate_hz=500.0, bin_width_s=1e-9, efficiency_signal=0.8,
                          efficiency_idler=0.6, noise_rate_signal_hz=100.0)
        signal, idler = synthesize_timestamps(model, 1.0, seed=5)
        path = tmp_path / "ts.csv"
        write_timestamps_csv(path, signal, idler)
        s2, i2 = read_timestamps_csv(path)
        np.testing.assert_array_equal(signal, s2)
        np.testing.assert_array_equal(idler, i2)

    def test_unknown_channel_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("channel,timestamp_s\nherald,0.5\n")
        with pytest.raises(DataError):
            read_timestamps_csv(path)

    def test_non_monotone_stream_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("channel,timestamp_s\nsignal,0.5\nsignal,0.2\n")
        with pytest.raises(DataError, match=r"ts\.csv:3: signal timestamp 0.2 is earlier"):
            read_timestamps_csv(path)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("idler,0.3\nsignal,0.5\nidler,0.1\nsignal,0.2\n", 4, "idler timestamp 0.1 "),
            ("signal,0.1\nidler,0.9\n# note\n\nidler,0.4\n", 6, "idler timestamp 0.4 "),
        ],
    )
    def test_non_monotone_stream_names_first_late_line(self, tmp_path, rows, line, message):
        path = tmp_path / "ts.csv"
        path.write_text(f"channel,timestamp_s\n{rows}")
        with pytest.raises(DataError, match=rf"ts\.csv:{line}: {message}is earlier"):
            read_timestamps_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "ts.csv"
        path.write_text(f"channel,timestamp_s\nsignal,0.1\nsignal,{value}\nidler,0.2\n")
        with pytest.raises(DataError, match=r"ts\.csv:3: .*not finite"):
            read_timestamps_csv(path)

    def test_stamps_whose_difference_overflows_name_the_late_line(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("channel,timestamp_s\nsignal,-1e308\nsignal,1e308\nsignal,0.0\n")
        with pytest.raises(DataError, match=r"ts\.csv:4: signal timestamp 0\.0 is earlier"):
            read_timestamps_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_timestamps_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("channel,timestamp_s\n")
        with pytest.raises(DataError):
            read_timestamps_csv(path)

    @staticmethod
    def _write(path, rows):
        path.write_text("channel,timestamp_s\n" + "".join(f"{c},{t!r}\n" for c, t in rows))

    def test_grouped_and_interleaved_files_read_the_same(self, tmp_path):
        signal, idler = synthesize_timestamps(
            RateModel(pair_rate_hz=400.0, bin_width_s=1e-9, noise_rate_idler_hz=300.0), 1.0, seed=8
        )
        signal_rows = [("signal", t) for t in signal.tolist()]
        idler_rows = [("idler", t) for t in idler.tolist()]
        grouped, idler_first = tmp_path / "grouped.csv", tmp_path / "idler_first.csv"
        interleaved = tmp_path / "interleaved.csv"
        write_timestamps_csv(grouped, signal, idler)
        self._write(idler_first, idler_rows + signal_rows)
        self._write(interleaved, sorted(signal_rows + idler_rows, key=lambda row: row[1]))
        for path in (grouped, idler_first, interleaved):
            got_signal, got_idler = read_timestamps_csv(path)
            np.testing.assert_array_equal(got_signal, signal)
            np.testing.assert_array_equal(got_idler, idler)
            # Each channel one run: both are views of the one column read.
            assert (got_signal.base is got_idler.base is not None) == (path != interleaved)

    @pytest.mark.parametrize("channel", ["signal", "idler"])
    def test_grouped_and_interleaved_files_name_the_same_late_line(self, tmp_path, channel):
        # Line 4 steps back on its channel in both files.
        other = "idler" if channel == "signal" else "signal"
        grouped = [(channel, 0.1), (channel, 0.5), (channel, 0.2), (channel, 0.7),
                   (other, 0.3), (other, 0.4)]
        interleaved = grouped[:3] + [grouped[4], grouped[3], grouped[5]]
        messages = []
        for name, rows in (("grouped", grouped), ("interleaved", interleaved)):
            path = tmp_path / name / "ts.csv"
            path.parent.mkdir()
            self._write(path, rows)
            with pytest.raises(DataError) as err:
                read_timestamps_csv(path)
            messages.append(str(err.value).replace(str(path.parent), ""))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"/ts.csv:4: {channel} timestamp 0.2 is earlier")

    def test_reading_a_grouped_stream_holds_its_stamps_about_once(self, tmp_path):
        rng = np.random.default_rng(6)
        signal = np.sort(rng.random(270_000)) * 60.0
        idler = np.sort(rng.random(330_000)) * 60.0
        path = tmp_path / "ts.csv"
        write_timestamps_csv(path, signal, idler)
        tracemalloc.start()
        try:
            got_signal, got_idler = read_timestamps_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got_signal, signal)
        np.testing.assert_array_equal(got_idler, idler)
        stamps_and_codes = 9 * (signal.size + idler.size)
        # The column read, its channel codes and one read block (1.23 times
        # the stamps and codes here), not a copy of each channel (2.2).
        assert peak <= 1.35 * stamps_and_codes, (peak, stamps_and_codes)
