"""Coincidence histograms, CAR estimation and synthetic data.

The coincidence-to-accidental ratio is estimated histogram-style: bin the
idler-minus-signal arrival-time differences, average the 5 bins covering the
coincidence peak, and divide by the average of the remaining (accidental)
bins.  A flat histogram therefore has CAR = 1 exactly.

``predict_rates`` is the matching closed-form budget: true coincidences at
pair_rate * eta_s * eta_i, accidentals at singles_s * singles_i * bin_width,
and CAR = 1 + coincidence/(5 * accidentals), since the estimator's peak
window spreads the true coincidences over its 5 bins.

``synthesize_timestamps`` generates matching Poisson test data: pair events
thinned per arm by the detector efficiencies plus independent noise/dark
counts, all timed from a seeded generator, so analysis pipelines can be
closed-loop tested against the predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import inf
from pathlib import Path

import numpy as np

from .csvio import TextColumn, _column_blocks, _write, read_table, row_error
from .errors import DataError, DomainError

CAR_PEAK_BINS = 5
# The edges and counts take 16 bytes per bin, so 64 MB at this limit.
MAX_HISTOGRAM_BINS = 1 << 22
# A draw of n events takes 8 n bytes per array, so 128 MB at this limit; the
# shipped 600 s config draws about 9 M idler events.
MAX_EVENTS_PER_DRAW = 1 << 24
# Signal events per histogram block (and timestamps per block of the order
# check): with about one match per event a block's arrays take about 32
# bytes per event, so about 4 MB however long the stream.
HISTOGRAM_BLOCK = 1 << 17
TIMESTAMP_HEADER = ("channel", "timestamp_s")
CHANNELS = ("signal", "idler")


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Binned idler-minus-signal time differences."""

    bin_width_s: float
    bin_edges_s: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges_s, dtype=float)
        counts = np.asarray(self.counts)
        if not self.bin_width_s > 0.0:
            raise DomainError("bin width must be > 0")
        if edges.ndim != 1 or edges.size != counts.size + 1:
            raise DataError("need len(bin_edges) == len(counts) + 1")
        widths = np.diff(edges)
        if not np.allclose(widths, self.bin_width_s, rtol=1e-9, atol=0.0):
            raise DataError("histogram bins must be uniform")
        if np.any(counts < 0):
            raise DataError("counts must be >= 0")
        object.__setattr__(self, "bin_edges_s", edges)
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_centers_s(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_s[:-1] + self.bin_edges_s[1:])

    @property
    def central_bin(self) -> int:
        """Index of the bin containing zero time difference."""
        return int(np.searchsorted(self.bin_edges_s, 0.0, side="right") - 1)


def _first_break(values: np.ndarray, holds) -> int:
    """The first index k >= 1 at which ``holds(values[k - 1], values[k])`` is False, else the size.

    Compared ``HISTOGRAM_BLOCK`` pairs at a time, not subtracted (np.diff may overflow).  With
    ``np.less_equal`` it is the first late stamp or NaN; with ``np.equal``, the first run's end.
    """
    for start in range(0, values.size - 1, HISTOGRAM_BLOCK):
        block = values[start : start + HISTOGRAM_BLOCK + 1]
        held = holds(block[:-1], block[1:])
        if not held.all():
            return start + 1 + int(np.argmin(held))
    return values.size


def _check_sorted(name: str, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise DataError(f"{name} timestamps must be 1-D")
    late = _first_break(ts, np.less_equal)
    if late < ts.size and np.isfinite(ts[late - 1 : late + 1]).all():
        raise DataError(f"{name} timestamps are not sorted ascending")
    # With no NaN beside a stamp before it, sorted stamps are finite when their ends are.
    if late < ts.size or not np.isfinite(ts[:: max(ts.size - 1, 1)]).all():
        raise DataError(f"{name} timestamps must be finite")
    return ts


def histogram_bins(bin_width_s: float, window_s: float) -> int:
    """The number of bins a window spans.

    Raises DomainError unless that is a whole number from 1 to
    ``MAX_HISTOGRAM_BINS``, before anything is allocated.
    """
    if not bin_width_s > 0.0:
        raise DomainError("bin width must be > 0")
    n_bins_f = window_s / bin_width_s
    if not n_bins_f <= MAX_HISTOGRAM_BINS:  # also catches an infinite ratio
        raise DomainError(
            f"window {window_s!r} s over bin width {bin_width_s!r} s needs {n_bins_f:.3g} bins, "
            f"more than the {MAX_HISTOGRAM_BINS} a histogram may have"
        )
    n_bins = int(round(n_bins_f))
    if n_bins < 1 or abs(n_bins_f - n_bins) > 1e-9 * n_bins:
        raise DomainError(
            f"window {window_s!r} s is not an integer multiple of bin width {bin_width_s!r} s"
        )
    return n_bins


def build_histogram(
    signal_ts,
    idler_ts,
    bin_width_s: float,
    window_s: float,
) -> CoincidenceHistogram:
    """Histogram idler-signal time differences over [-window/2, +window/2).

    Timestamps must be sorted ascending; the window must be an integer
    multiple of the bin width.  Runs in O(N + M + matches) via a sorted
    sweep over ``HISTOGRAM_BLOCK`` signal events at a time: each block
    searches only the idler events its window can reach, and its counts are
    added to the histogram's.  Besides the histogram, it holds one block's
    arrays and its matches.
    """
    signal = _check_sorted("signal", signal_ts)
    idler = _check_sorted("idler", idler_ts)
    n_bins = histogram_bins(bin_width_s, window_s)
    half = 0.5 * window_s
    edges = -half + bin_width_s * np.arange(n_bins + 1)

    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, signal.size if idler.size else 0, HISTOGRAM_BLOCK):
        block = signal[start : start + HISTOGRAM_BLOCK]
        # The idler events that the block's first and last events can reach.
        first, last = np.searchsorted(idler, (block[0] - half, block[-1] + half), side="left")
        found = _block_counts(block, idler[first:last], half, bin_width_s, n_bins)
        counts[: found.size] += found
    return CoincidenceHistogram(bin_width_s, edges, counts)


def _block_counts(
    signal: np.ndarray, idler: np.ndarray, half: float, bin_width_s: float, n_bins: int
) -> np.ndarray:
    """The counts of the first bins of ``build_histogram`` over these events, up to the
    last bin a difference falls in; ``idler`` must hold every event ``signal`` can reach."""
    lo = np.searchsorted(idler, signal - half, side="left")
    matches = np.searchsorted(idler, signal + half, side="left") - lo
    total = int(matches.sum())
    if not total:
        return matches[:0]
    # Per match, in the order of its signal event: its idler event's index,
    # then the idler-minus-signal difference, then its bin.
    lo -= np.cumsum(matches) - matches  # less the matches before each event's
    index = np.repeat(lo, matches)
    index += np.arange(total)
    diffs = idler[index]
    del index
    diffs -= np.repeat(signal, matches)
    diffs += half
    diffs /= bin_width_s
    bin_idx = np.floor(diffs, out=diffs).astype(np.int64)
    del diffs
    return np.bincount(bin_idx[(bin_idx >= 0) & (bin_idx < n_bins)])


def car_from_histogram(hist: CoincidenceHistogram, guard_bins: int = 0) -> float:
    """CAR = mean of the peak window / mean of all remaining bins.

    The window is ``CAR_PEAK_BINS`` bins centered on the zero-delay bin.
    ``guard_bins`` extra bins on each side are excluded from the accidental
    average.  Returns +inf when the accidental mean is 0 while the peak is not.
    """
    counts = hist.counts
    if hist.n_bins < 3 * CAR_PEAK_BINS:
        raise DomainError(
            f"need at least {3 * CAR_PEAK_BINS} bins for a {CAR_PEAK_BINS}-bin peak window, "
            f"got {hist.n_bins}"
        )
    if guard_bins < 0:
        raise DomainError("guard_bins must be >= 0")
    if int(counts.sum()) == 0:
        raise DataError("CAR is undefined for an all-zero histogram")
    half = CAR_PEAK_BINS // 2
    lo, hi = hist.central_bin - half, hist.central_bin + half + 1
    if lo < 0 or hi > hist.n_bins:
        raise DomainError(
            f"peak window [{lo}, {hi}) falls outside the histogram ({hist.n_bins} bins)"
        )
    peak_mean = float(counts[lo:hi].mean())
    acc_mask = np.ones(hist.n_bins, dtype=bool)
    acc_mask[max(lo - guard_bins, 0) : min(hi + guard_bins, hist.n_bins)] = False
    if not np.any(acc_mask):
        raise DomainError("no accidental bins left outside peak and guard windows")
    acc_mean = float(counts[acc_mask].mean())
    if acc_mean == 0.0:
        return inf if peak_mean > 0.0 else 1.0
    return peak_mean / acc_mean


@dataclass(frozen=True)
class RateModel:
    """Closed-form coincidence budget for a filtered pair source."""

    pair_rate_hz: float
    bin_width_s: float
    efficiency_signal: float = 1.0
    efficiency_idler: float = 1.0
    noise_rate_signal_hz: float = 0.0
    noise_rate_idler_hz: float = 0.0
    dark_rate_signal_hz: float = 0.0
    dark_rate_idler_hz: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "pair_rate_hz",
            "noise_rate_signal_hz",
            "noise_rate_idler_hz",
            "dark_rate_signal_hz",
            "dark_rate_idler_hz",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < inf:
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("efficiency_signal", "efficiency_idler"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DomainError(f"{name} must be in [0, 1]")
        if not self.bin_width_s > 0.0:
            raise DomainError("bin_width_s must be > 0")

    @property
    def singles_signal_hz(self) -> float:
        return (
            self.efficiency_signal * (self.pair_rate_hz + self.noise_rate_signal_hz)
            + self.dark_rate_signal_hz
        )

    @property
    def singles_idler_hz(self) -> float:
        return (
            self.efficiency_idler * (self.pair_rate_hz + self.noise_rate_idler_hz)
            + self.dark_rate_idler_hz
        )


def predict_rates(model: RateModel) -> dict[str, float]:
    """Singles, coincidence and accidental rates plus the predicted CAR.

    CAR = 1 + coincidence/(CAR_PEAK_BINS * accidentals), the value that
    ``car_from_histogram`` estimates with its peak-window average.
    """
    coincidence = model.pair_rate_hz * model.efficiency_signal * model.efficiency_idler
    accidental = model.singles_signal_hz * model.singles_idler_hz * model.bin_width_s
    if accidental == 0.0:
        car = inf if coincidence > 0.0 else 1.0
    else:
        car = 1.0 + coincidence / (CAR_PEAK_BINS * accidental)
    return {
        "singles_signal_hz": model.singles_signal_hz,
        "singles_idler_hz": model.singles_idler_hz,
        "coincidence_hz": coincidence,
        "accidental_hz": accidental,
        "car": car,
    }


def draw_rates(model: RateModel, duration_s: float) -> tuple[float, float, float]:
    """The rates (Hz) of the pair, extra-signal and extra-idler Poisson draws.

    Raises DomainError unless ``duration_s`` > 0 and no draw expects more than
    ``MAX_EVENTS_PER_DRAW`` events, before anything is drawn.
    """
    if not duration_s > 0.0:
        raise DomainError("duration_s must be > 0")
    rates = (
        model.pair_rate_hz,
        model.efficiency_signal * model.noise_rate_signal_hz + model.dark_rate_signal_hz,
        model.efficiency_idler * model.noise_rate_idler_hz + model.dark_rate_idler_hz,
    )
    if not max(rates) * duration_s <= MAX_EVENTS_PER_DRAW:  # also an infinite product
        raise DomainError(
            f"{duration_s!r} s at up to {max(rates)!r} Hz expects {max(rates) * duration_s:.3g} "
            f"events in one draw, more than the {MAX_EVENTS_PER_DRAW} a draw may have"
        )
    return rates


def synthesize_timestamps(
    model: RateModel, duration_s: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pair events (thinned per arm) plus noise/darks, per channel.

    Pairs arrive jointly at pair_rate and are detected with the per-arm
    efficiencies; uncorrelated noise photons pass the same efficiencies and
    dark counts add directly.  Deterministic for a fixed seed.  Each channel
    is held once: its detected pair times and its noise share one array,
    sorted in place.
    """
    pair_rate, extra_signal_rate, extra_idler_rate = draw_rates(model, duration_s)
    rng = np.random.default_rng(seed)

    def poisson_times(rate_hz: float, head: int = 0) -> np.ndarray:
        """``head`` slots left unset, then Poisson times at ``rate_hz`` over the run."""
        if rate_hz == 0.0:
            return np.empty(head)
        times = np.empty(head + rng.poisson(rate_hz * duration_s))
        drawn = rng.random(out=times[head:])
        drawn *= duration_s
        return times

    def channel(picked: np.ndarray, rate_hz: float) -> np.ndarray:
        """The ``picked`` pair times, then noise at ``rate_hz``, sorted in one array."""
        detected = int(np.count_nonzero(picked))
        times = poisson_times(rate_hz, detected)
        times[:detected] = pair_times[picked]
        times.sort()
        return times

    pair_times = poisson_times(pair_rate)
    signal_picks = rng.random(pair_times.size) < model.efficiency_signal
    idler_picks = rng.random(pair_times.size) < model.efficiency_idler
    signal = channel(signal_picks, extra_signal_rate)
    return signal, channel(idler_picks, extra_idler_rate)


def write_timestamps_csv(path: str | Path, signal_ts, idler_ts) -> None:
    """Write the two channels in the `channel,timestamp_s` interchange format.

    All signal rows come first, then all idler rows, so that
    ``read_timestamps_csv`` returns each channel as a slice of one column.
    Each channel is written from its own array, with a zero-stride code column.
    """
    runs = []
    for code, ts in enumerate((signal_ts, idler_ts)):
        ts = np.asarray(ts, dtype=float)
        channel = TextColumn(CHANNELS, np.broadcast_to(np.uint8(code), ts.shape))
        runs.append(_column_blocks(path, (channel, ts)))
    _write(path, TIMESTAMP_HEADER, (), chain(*runs))


def read_timestamps_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read `channel,timestamp_s` data; each channel must be monotone.

    When each channel's rows are one run, as ``write_timestamps_csv`` writes
    them, both channels are slices of the one column read and no array per row
    is built; only a file that interleaves them has each channel copied out.
    """
    (names, codes), stamps = read_table(path, TIMESTAMP_HEADER, text=("channel",))
    if not stamps.size:
        raise DataError(f"{path}: no timestamps found")
    known = np.array([name in CHANNELS for name in names])
    if not known.all():
        row = int(np.argmin(known[codes]))
        raise row_error(path, row, f"unknown channel {names[codes[row]]!r} (signal|idler)")
    stop = _first_break(codes, np.equal)
    if stop + _first_break(codes[stop:], np.equal) == codes.size:  # one run per channel
        rows = (slice(0, stop), slice(stop, None))[:: 1 if names[codes[0]] == "signal" else -1]
    else:
        is_signal = codes == names.index("signal")
        rows = is_signal, ~is_signal
    signal, idler = stamps[rows[0]], stamps[rows[1]]
    # The row of each channel's first timestamp below the one before it.
    late = [
        where.start + k if isinstance(where, slice) else int(np.flatnonzero(where)[k])
        for where, ts in zip(rows, (signal, idler))
        if (k := _first_break(ts, np.less_equal)) < ts.size
    ]
    if late:
        row = min(late)
        message = f"{names[codes[row]]} timestamp {float(stamps[row])!r} is earlier than the one "
        message += "before it on that channel (timestamps must be sorted ascending per channel)"
        raise row_error(path, row, message)
    return signal, idler
