"""Scenario presets, Monte Carlo driver and result statistics.

A sweep enumerates RIS placements (z heights or an x/y grid) and element
counts. Every (sweep point, trial) pair derives its own RNG streams from the
master seed by counter-based key derivation, so results are bit-identical
regardless of execution order or parallelism. The keys are those of numpy's
``SeedSequence``, whose generators one trial alone takes (``_trial_rngs``);
a chunk derives the state words of all its rows in one vectorised pass with
its arithmetic, for the one-word keys a sweep makes (``_stream_words``).
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import io
import json
import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from itertools import repeat
from typing import ClassVar, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

# The engine calls no one-trial link function; tx_ris_channel, ris_rx_farfield
# and siso_channel stay importable here, where benchmarks/layertrace.py wraps them.
from .channel import (  # noqa: F401
    ChannelRealization,
    FieldRegime,
    _chunk_trials,
    _direct_link,
    _Link,
    _nearfield_rx_distance,
    _panel_link,
    ris_rx_farfield,
    ris_rx_nearfield,
    select_field_regime,
    siso_channel,
    tx_ris_channel,
)
from .geometry import CarrierConfig, PanelGeometry, Point3
from .largescale import Environment
from .link import N_0_DBM, LinkBudget, evaluate_link

CSV_COLUMNS = (
    "preset",
    "ris_x",
    "ris_y",
    "ris_z",
    "p_t_dbm",
    "n_elements",
    "mean_rate_bps_hz",
    "std_rate",
    "mean_snr_db",
    "los_fraction_txris",
    "los_fraction_txrx",
    "regime",
    "trials",
    "seed",
)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One evaluated configuration: RIS placement, size and transmit power."""

    ris_x: float
    ris_y: float
    ris_z: float
    n_elements: int
    p_t_dbm: float


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Aggregated Monte Carlo statistics for one sweep point."""

    index: int
    point: SweepPoint
    mean_rate_bps_hz: float
    std_rate: float
    mean_snr_db: float
    los_fraction_txris: float
    los_fraction_txrx: float
    regime: str
    trials: int
    seed: int
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment.

    The RIS placement sweeps default to the single base position; element
    counts are always a sweep list. An entry of 0 elements (or the no-RIS
    baseline) evaluates the direct link alone. The model fixes the rest:
    each panel faces the Tx with elements half a wavelength apart
    (``_PointChannels``), and the noise power is the class constant below.
    """

    n_0_dbm: ClassVar[float] = N_0_DBM

    name: str
    environment: Environment
    f_c_ghz: float
    tx: Point3
    rx: Point3
    ris_center: Point3
    n_elements: tuple[int, ...] = (256,)
    ris_x_sweep: Optional[tuple[float, ...]] = None
    ris_y_sweep: Optional[tuple[float, ...]] = None
    ris_z_sweep: Optional[tuple[float, ...]] = None
    p_t_dbm: float = 20.0
    trials: int = 2000
    master_seed: int = 2024
    regime_override: Optional[FieldRegime] = None
    no_ris_baseline_extra_db: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 1 <= self.trials <= 2**32:
            raise ValueError(f"trials must be in [1, 2**32] (one key word each), got {self.trials}")
        if len(self.n_elements) == 0:
            raise ValueError("n_elements sweep must be non-empty")
        for axis in (self.ris_x_sweep, self.ris_y_sweep, self.ris_z_sweep):
            if axis is not None and len(axis) == 0:
                raise ValueError("sweep axes must be non-empty when given")
        if not self.f_c_ghz > 0:
            raise ValueError(f"f_c_ghz must be positive, got {self.f_c_ghz}")
        bad = [n for n in self.n_elements if n < 0 or math.isqrt(n) ** 2 != n]
        if bad:
            raise ValueError(f"n_elements entries must be 0 or perfect squares, got {bad}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.tx == self.rx:
            raise ValueError("tx and rx coincide")

    def sweep_points(self) -> list[SweepPoint]:
        xs = self.ris_x_sweep or (self.ris_center.x,)
        ys = self.ris_y_sweep or (self.ris_center.y,)
        zs = self.ris_z_sweep or (self.ris_center.z,)
        points = [
            SweepPoint(x, y, z, n, self.p_t_dbm)
            for z in zs
            for y in ys
            for x in xs
            for n in self.n_elements
        ]
        if self.no_ris_baseline_extra_db is not None:
            points.append(
                SweepPoint(
                    self.ris_center.x,
                    self.ris_center.y,
                    self.ris_center.z,
                    0,
                    self.p_t_dbm + self.no_ris_baseline_extra_db,
                )
            )
        return points

    def to_dict(self) -> dict:
        """The config as JSON data: points and tuples as lists, enums as their values."""

        def plain(value):
            if isinstance(value, Point3):
                return [value.x, value.y, value.z]
            if isinstance(value, Enum):
                return value.value
            return list(value) if isinstance(value, tuple) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse JSON data by the field types; absent keys take the field defaults."""
        if not isinstance(raw, dict):
            raise ValueError(f"a config is a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        hints = get_type_hints(cls)
        return cls(**{key: _convert(key, hints[key], value) for key, value in raw.items()})


def _whole(value) -> int:
    """``int(value)`` that drops no fraction: 2000.0 is 2000, 2.9 is an error."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _convert(key: str, kind, value):
    """``value`` as the field type ``kind``; every error names ``key``.

    ``Optional[X]`` takes null, and an empty sweep list, as None; a tuple or a
    ``Point3`` needs a list; enums and scalars are built from the value.
    """
    origin = get_origin(kind)
    if origin is Union:
        value = None if value is None else _convert(key, get_args(kind)[0], value)
        return None if value == () else value
    args = (value,)
    if kind is str and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    if kind in (int, float) and isinstance(value, (bool, str)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if origin is tuple or kind is Point3:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        if origin is tuple:
            return tuple(_convert(key, get_args(kind)[0], v) for v in value)
        if len(value) != 3:
            raise ValueError(f"{key} must be a list of three coordinates, got {value!r}")
        args = [_convert(key, float, v) for v in value]
    try:
        return (_whole if kind is int else kind)(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


@dataclass
class RateStats:
    """Result table of one experiment run."""

    preset: str
    rows: list = field(default_factory=list)

    def _records(self):
        """(values in CSV_COLUMNS order, error) for every row."""
        for row in self.rows:
            p = row.point
            values = (
                self.preset, p.ris_x, p.ris_y, p.ris_z, p.p_t_dbm, p.n_elements,
                row.mean_rate_bps_hz, row.std_rate, row.mean_snr_db,
                row.los_fraction_txris, row.los_fraction_txrx, row.regime,
                row.trials, row.seed,
            )
            yield values, row.error

    def to_csv_text(self) -> str:
        def fmt(value) -> str:
            return format(value, ".9g") if isinstance(value, float) else str(value)

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([fmt(v) for v in values] for values, _ in self._records())
        return out.getvalue()

    def to_json_text(self) -> str:
        def encode(value):
            # NaN and +-inf have no JSON form; they are written as null.
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        rows = [
            {**{k: encode(v) for k, v in zip(CSV_COLUMNS, values)}, "error": error}
            for values, error in self._records()
        ]
        return json.dumps({"preset": self.preset, "rows": rows}, indent=2) + "\n"


# The links of a trial in the order of its streams: stream k draws link k.
_STREAMS = ("tx_ris", "tx_rx", "ris_rx")

# Constants of numpy's ``SeedSequence``: the hash that fills its entropy
# pool, the mix of two pool words and the hash that reads the pool out.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _schedule(init: int, mult: int, count: int) -> np.ndarray:
    """Hash constants ``init * mult**j`` mod 2**32 for j < count, read-only uint32."""
    consts = np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(count)], np.uint32)
    consts.flags.writeable = False
    return consts


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of 32-bit words: (values ^ xor) * mult, then an xor-shift."""
    value = (values ^ xor) * mult
    return value ^ value >> 16


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of hashed words into pool words."""
    value = _MIX_L * pool - _MIX_R * hashed
    return value ^ value >> 16


# The readout hashes pool word j % 4 into 32-bit state word j against entries
# j and j + 1, for the eight halves of the four uint64 state words.
_READOUT = _schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)[:, None, None]
_READ_FROM = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


@functools.lru_cache(maxsize=16)
def _seed_schedule(master_seed: int) -> tuple:
    """(pool, xor, mult, streams) of ``SeedSequence(master_seed,
    spawn_key=(i, t, k))`` for one-word i and t, before the key's words.

    ``pool`` is ``SeedSequence(master_seed).pool``, which hashes missing seed
    words as zeros just as a spawn key's zero padding does, (4, 1). Past the
    (at least four) seed words, key word p (i, then t) is hashed for pool
    word d as ``_hash(word, xor[p, d], mult[p, d])``, xor and mult (2, 4, 1),
    and ``streams[d, k]`` is k so hashed as the third word, (4, 3, 1).
    """
    from numpy.random import SeedSequence

    pool = SeedSequence(master_seed).pool.reshape(_POOL_SIZE, 1)
    pool.flags.writeable = False
    n_words = max(_POOL_SIZE, -(-int(master_seed).bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32
    consts = _schedule(hash_const, _MULT_A, 3 * _POOL_SIZE + 1)
    xor, mult = consts[:-1].reshape(3, _POOL_SIZE, 1), consts[1:].reshape(3, _POOL_SIZE, 1)
    # The third key word is the stream number k, one per column.
    k = np.arange(len(_STREAMS), dtype=np.uint32)[:, None]
    streams = _hash(k, xor[2, :, None], mult[2, :, None])
    streams.flags.writeable = False
    return pool, xor[:2], mult[:2], streams


def _stream_words(master_seed: int, sweep_indices, trials) -> np.ndarray:
    """The PCG64 state words of every stream of the given (sweep index, trial) rows.

    Returns (rows, 3, 4) uint64: row r, stream k holds
    ``SeedSequence(master_seed, spawn_key=(sweep_indices[r], trials[r],
    k)).generate_state(4, np.uint64)``, for sweep indices and trials in
    [0, 2**32): one key word each, as in every key a sweep makes. One
    vectorised pass of ``SeedSequence``'s 32-bit arithmetic over the rows,
    pool words and streams mixes both key words of every row into the seed's
    pool, then the stream numbers (``_seed_schedule``), and reads the words
    out. A row's words do not depend on the other rows.
    """
    keys = np.asarray((sweep_indices, trials))
    bad = keys[(keys < 0) | (keys > _MASK32)]
    if bad.size:
        raise ValueError(f"sweep indices and trials must lie in [0, 2**32), got {bad[0]}")
    pool, xor, mult, streams = _seed_schedule(master_seed)
    mixed = pool
    for hashed in _hash(keys.astype(np.uint32)[:, None], xor, mult):
        mixed = _mix(mixed, hashed)
    mixed = _mix(mixed[:, None], streams)
    out = _hash(mixed[_READ_FROM], _READOUT[:-1], _READOUT[1:])
    # The eight 32-bit words of a stream, viewed as four uint64 as generate_state does.
    return np.ascontiguousarray(out.transpose(2, 1, 0)).view(np.uint64)


@functools.cache
def _generator_from_words():
    """A function of four uint64 state words to ``Generator(PCG64(...))``.

    Imports ``numpy.random`` on first use, so importing rissim does not.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed that hands ``PCG64`` its four precomputed state words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("StateWords holds four uint64 words")
            return np.asarray(self.words, dtype=np.uint64)

    return lambda words: Generator(PCG64(StateWords(words)))


def _trial_rngs(master_seed: int, sweep_index: int, trial: int):
    """Three independent generators (h, direct, g) for one trial.

    Generator k is ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(sweep_index, trial, k))))``, the k-th child ``spawn`` would
    make of ``SeedSequence(master_seed, spawn_key=(sweep_index, trial))``,
    built by numpy itself. One trial alone is thus a reference for the
    words ``_stream_words`` derives for a chunk.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    smallest = min(master_seed, sweep_index, trial)
    if smallest < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {smallest}")
    return tuple(
        Generator(PCG64(SeedSequence(master_seed, spawn_key=(sweep_index, trial, k))))
        for k in range(len(_STREAMS))
    )


@dataclass(frozen=True)
class _Chunk:
    """All three channels of a chunk of trials.

    ``h`` and ``g`` are (T, N) element magnitudes |h_n| and |g_n| (N = 0
    without a panel), all that the optimal-phase SNR of ``evaluate_link``
    reads; ``h_siso`` is (T,) and complex. ``los`` maps "tx_ris", "ris_rx"
    and "tx_rx" to each stochastic link's (T,) LOS states (None for an
    absent or near-field link).
    """

    h: np.ndarray
    g: np.ndarray
    h_siso: np.ndarray
    los: dict


class _PointChannels:
    """Per-point constants of one sweep point.

    The constructor builds the panel, facing the side of its plane the Tx
    lies on (the Rx's side for a Tx in the plane) with elements half a
    wavelength apart, selects the RIS-Rx regime and sizes the point's
    chunks; ``connect`` then computes every stochastic link's constants
    once. It settles the RIS-Rx side first, so a point whose Rx lies behind
    the panel (or, in the near field, in its plane) fails before the Tx-RIS
    link is built and can warn. A near-field point's deterministic
    magnitudes |g| are computed once, when its first chunk reads
    ``near_g``. The regime is set before ``connect`` can fail, so a point
    whose geometry fails still reports it. ``_chunk`` maps the trials of a
    chunk of connected points; ``trial`` maps one trial alone and adds each
    link's metadata. Without elements (the no-RIS baseline) ``h`` and ``g``
    are empty.
    """

    def __init__(self, config: ExperimentConfig, sweep_index: int, point: SweepPoint):
        self.config = config
        self.sweep_index = sweep_index
        self.point = point
        self.carrier = CarrierConfig(config.f_c_ghz)
        self.panel = None
        self.regime = FieldRegime.FAR_FIELD
        self.links = {}
        if point.n_elements > 0:
            side = config.tx.y - point.ris_y or config.rx.y - point.ris_y
            self.panel = PanelGeometry.centered(
                Point3(point.ris_x, point.ris_y, point.ris_z),
                point.n_elements,
                self.carrier.wavelength_m / 2.0,
                "-y" if side < 0 else "+y",
            )
            self.regime = select_field_regime(
                self.panel, config.rx, self.carrier, config.regime_override
            )
        self.chunk_trials = _chunk_trials(config.environment, point.n_elements, self.regime)

    @property
    def regime_name(self) -> str:
        return self.regime.value if self.panel is not None else "none"

    @functools.cached_property
    def near_g(self) -> np.ndarray:
        """The near-field magnitudes |g| of the point, (N,) float64."""
        return np.abs(ris_rx_nearfield(self.panel, self.config.rx, self.carrier)[0])

    def connect(self) -> "_PointChannels":
        """The link constants of the point; a near-field RIS-Rx link has none."""
        config, point = self.config, self.point
        env, carrier = config.environment, self.carrier
        links = {"tx_ris": None, "ris_rx": None}
        if point.n_elements > 0:
            if self.regime is FieldRegime.FAR_FIELD:
                links["ris_rx"] = _panel_link("ris_rx", env, config.rx, self.panel, carrier)
            else:
                _nearfield_rx_distance(self.panel, config.rx)
            links["tx_ris"] = _panel_link("tx_ris", env, config.tx, self.panel, carrier)
        links["tx_rx"] = _direct_link(env, config.tx, config.rx, carrier)
        self.links = links
        return self

    def trial(self, trial: int) -> ChannelRealization:
        """One trial's channels and metadata, each link drawn by ``_Link.one_trial``."""
        rngs = dict(zip(_STREAMS, _trial_rngs(self.config.master_seed, self.sweep_index, trial)))
        empty = (np.zeros(0, dtype=complex), None)
        out = {
            kind: empty if link is None else link.one_trial(rngs[kind])
            for kind, link in self.links.items()
        }
        if self.regime is FieldRegime.NEAR_FIELD:
            out["ris_rx"] = ris_rx_nearfield(self.panel, self.config.rx, self.carrier)
        return ChannelRealization(
            h=out["tx_ris"][0],
            g=out["ris_rx"][0],
            g_regime=self.regime,
            h_siso=complex(out["tx_rx"][0]),
            metadata={kind: meta for kind, (_, meta) in out.items()},
        )


def _chunk(parts: list) -> _Chunk:
    """Channels of a chunk whose rows are the given trials of connected points.

    ``parts`` holds ``(point channels, trials)`` pairs of points with equal
    element count and regime; the chunk's rows are each part's trials in
    order. Every trial draws from its own RNG streams, whose state words one
    ``_stream_words`` call derives for all rows; each stream of a link the
    point has becomes a ``(link, generator)`` row. Then the Tx-RIS and
    far-field RIS-Rx rows of every point go through one mapping pass per LOS
    state, and the direct rows through another.
    """
    sizes = [len(trials) for _, trials in parts]
    words = _stream_words(
        parts[0][0].config.master_seed,
        np.repeat([channels.sweep_index for channels, _ in parts], sizes),
        np.concatenate([np.asarray(trials) for _, trials in parts]),
    )
    make = _generator_from_words()
    rows = {kind: [] for kind in _STREAMS}
    for (channels, _), part_words in zip(parts, np.split(words, np.cumsum(sizes)[:-1])):
        for k, kind in enumerate(_STREAMS):
            link = channels.links[kind]
            if link is not None:
                rows[kind] += [(link, make(w)) for w in part_words[:, k]]
    los = dict.fromkeys(_STREAMS)
    los["tx_rx"], h_siso = _Link.generate(rows.pop("tx_rx"))
    n_h = len(rows["tx_ris"])
    panel_rows = rows.pop("tx_ris") + rows.pop("ris_rx")
    if not panel_rows:
        h = g = np.zeros((h_siso.size, 0))
        return _Chunk(h, g, h_siso, los)
    far = len(panel_rows) > n_h
    states, values = _Link.generate(panel_rows)
    los["tx_ris"], h = states[:n_h], values[:n_h]
    if far:
        los["ris_rx"], g = states[n_h:], values[n_h:]
    else:
        nears = [np.broadcast_to(c.near_g, (len(t), c.panel.n_elements)) for c, t in parts]
        g = nears[0] if len(nears) == 1 else np.concatenate(nears)
    return _Chunk(h, g, h_siso, los)


def generate_realization(
    config: ExperimentConfig,
    point: SweepPoint,
    sweep_index: int,
    trial: int,
) -> ChannelRealization:
    """Generate the full channel realization for one (sweep point, trial).

    Runs on one BLAS thread, as ``run_experiment`` does, so the result does
    not depend on the caller's thread count.
    """
    with _one_blas_thread():
        return _PointChannels(config, sweep_index, point).connect().trial(trial)


def _units(config: ExperimentConfig) -> list:
    """The sweep's units of work, each a list of unconnected ``_PointChannels``.

    A unit is a maximal run of consecutive points with equal element count,
    field regime and transmit power whose trials together fit one chunk of
    ``chunk_trials``, as wide as a point's own chunk; a point with more
    trials than that is a unit of its own. One chunk then holds every trial
    of a unit of several points. Units depend on the config alone: at 2
    trials per point, fig5a's 330 far-field points at N = 1024 make 14
    units, 13 of 24 points and one of 18.
    """
    units, last = [], None
    for index, point in enumerate(config.sweep_points()):
        channels = _PointChannels(config, index, point)
        key = (point.n_elements, channels.regime_name, point.p_t_dbm)
        if key == last and (len(units[-1]) + 1) * config.trials <= channels.chunk_trials:
            units[-1].append(channels)
        else:
            units.append([channels])
        last = key
    return units


def _stats(config: ExperimentConfig, placed: list) -> list:
    """Monte Carlo statistics of the connected points of one unit, in unit order.

    The trials run in chunks of ``chunk_trials``, with the same trials of
    every point in one chunk: a unit of several points fits one chunk, a
    point alone takes as many as its trials need. Each statistic of every
    point is then one reduction over the trial axis of a (points, trials)
    array. Raises what a chunk raises.
    """
    trials, count = config.trials, len(placed)
    budget = LinkBudget.from_dbm(placed[0].point.p_t_dbm, config.n_0_dbm)
    rates = np.empty((count, trials))
    snrs = np.empty((count, trials))
    los_h = np.zeros((count, trials), dtype=bool)
    los_siso = np.empty((count, trials), dtype=bool)
    step = placed[0].chunk_trials
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        chunk = _chunk([(channels, range(start, stop)) for channels in placed])
        result = evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget)
        rates[:, start:stop] = result.rate_bps_hz.reshape(count, -1)
        snrs[:, start:stop] = result.snr_linear.reshape(count, -1)
        if chunk.los["tx_ris"] is not None:
            los_h[:, start:stop] = chunk.los["tx_ris"].reshape(count, -1)
        los_siso[:, start:stop] = chunk.los["tx_rx"].reshape(count, -1)
    mean_rates = rates.mean(axis=1).tolist()
    std_rates = rates.std(axis=1, ddof=1).tolist() if trials > 1 else [0.0] * count
    mean_snrs = snrs.mean(axis=1).tolist()
    los_h_counts = los_h.sum(axis=1).tolist()
    los_siso_counts = los_siso.sum(axis=1).tolist()
    rows = []
    for k, channels in enumerate(placed):
        point = channels.point
        mean_snr = mean_snrs[k]
        los_txris = los_h_counts[k] / trials if point.n_elements > 0 else float("nan")
        rows.append(
            SweepResult(
                index=channels.sweep_index,
                point=point,
                mean_rate_bps_hz=mean_rates[k],
                std_rate=std_rates[k],
                mean_snr_db=10.0 * math.log10(mean_snr) if mean_snr > 0 else float("-inf"),
                los_fraction_txris=los_txris,
                los_fraction_txrx=los_siso_counts[k] / trials,
                regime=channels.regime_name,
                trials=trials,
                seed=config.master_seed,
            )
        )
    return rows


def _run_sweep_point(config: ExperimentConfig, index: int, point: SweepPoint) -> SweepResult:
    """Monte Carlo statistics of one sweep point, a unit of its own.

    Any exception from the point becomes its error row, so the rest of the
    sweep completes: a ``ValueError`` (bad geometry) keeps its message, any
    other exception is written as ``"<Type>: <message>"``.
    """
    channels = _PointChannels(config, index, point)
    try:
        return _stats(config, [channels.connect()])[0]
    except Exception as exc:
        nan = float("nan")
        error = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        return SweepResult(
            index, point, nan, nan, nan, nan, nan, channels.regime_name, config.trials,
            config.master_seed, error=error,
        )


def _run_unit(config: ExperimentConfig, unit: list) -> list:
    """Rows of one unit of ``_units``.

    A point alone runs through ``_run_sweep_point``, whose row carries any
    error of the point. A unit of several points that raises is rerun point
    by point where it ran, in this process or in a pool worker, so only a
    failing point gets an error row.
    """
    if len(unit) > 1:
        try:
            return _stats(config, [channels.connect() for channels in unit])
        except Exception:
            pass
    return [_run_sweep_point(config, c.sweep_index, c.point) for c in unit]


# (get, set) thread-count entry points: numpy's bundled OpenBLAS, then a plain one.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_funcs():
    """(get, set) thread-count functions of the OpenBLAS numpy's ``matmul`` uses.

    Looked up through a handle on numpy's linear-algebra extension, a private
    numpy name (``numpy.linalg._umath_linalg``): a symbol lookup on that
    handle also searches the libraries the extension was linked with, so it
    finds numpy's BLAS whatever other BLAS builds are loaded. None when that
    BLAS exports neither pair, or where a lookup does not search a module's
    dependencies (Windows).
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _set_blas_threads(count: int) -> Optional[int]:
    """Set the OpenBLAS thread count; return the previous one (None: no OpenBLAS)."""
    funcs = _openblas_thread_funcs()
    if funcs is None:
        return None
    get, set_ = funcs
    previous = get()
    set_(count)
    return previous


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread; the caller's count is restored after.

    The matrix products of one trial are too small to gain from more threads,
    and a product's last bits depend on how many threads formed it.
    """
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


# Projected serial seconds of a sweep's remaining units above which they go
# to the process pool. Timed on fig4 with two workers on a 2-core machine
# where two busy processes had ~1.25x the throughput of one (BENCH_8.json,
# "pool_cutoff"): a pool started after the first point cost time with up to
# ~0.25 s of points left (x2.4 at 20 trials, x1.1 at 100), broke even at
# ~0.3-0.4 s and saved time from ~0.5 s (x0.89 at 200 trials, x0.78 at 2000).
_POOL_MIN_SECONDS = 0.5


def _pool_pays(elapsed_s: float, done: int, left: int) -> bool:
    """Whether ``left`` units, at the mean time of the ``done`` units run in
    ``elapsed_s``, would take longer than ``_POOL_MIN_SECONDS``.

    False until a unit is done: there is nothing yet to project from.
    """
    return done > 0 and elapsed_s / done * left > _POOL_MIN_SECONDS


def _usable_cores() -> int:
    """Cores this process may run on (``os.cpu_count()`` where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RateStats:
    """Run the full sweep.

    The sweep runs in units (``_units``): a run of consecutive points with
    equal element count, regime and transmit power whose trials fit one
    chunk shares that chunk, and a point with more trials is a unit alone.
    In a unit's chunk the Tx-RIS and far-field RIS-Rx trials of every point
    go through one mapping pass per LOS state. A unit of several points that
    raises is rerun point by point where it ran (``_run_unit``), so only a
    failing point gets an error row.

    Units run in this process in index order; with ``workers`` > 1, the
    remaining units go to a process pool once their projected serial time
    (the mean time of the units done so far times the units left) exceeds
    ``_POOL_MIN_SECONDS``. A small sweep therefore never starts a pool, and
    a long one starts it after its first unit. The pool holds ``min(workers,
    usable cores, units left)`` processes; a pool of one is never started.
    Units depend on the config alone, rows are kept in sweep-index order
    and every (point, trial) draws from its own RNG streams, so the output
    is identical for any worker count. The process pool is the only
    parallelism: every unit runs with one BLAS thread, since the matrix
    products of one trial are too small to gain from more, and the caller's
    thread count is restored afterwards.
    """
    from concurrent.futures import ProcessPoolExecutor

    # Units are popped in index order from the end of the reversed list, so
    # a unit's connected points (its links' constants) are freed once it ran.
    units = _units(config)[::-1]
    workers = min(workers, _usable_cores())
    rows = []
    with _one_blas_thread():
        start = time.perf_counter()
        done = 0
        while units:
            pool_size = min(workers, len(units))
            if pool_size > 1 and _pool_pays(time.perf_counter() - start, done, len(units)):
                with ProcessPoolExecutor(
                    max_workers=pool_size, initializer=_set_blas_threads, initargs=(1,)
                ) as pool:
                    for unit_rows in pool.map(_run_unit, repeat(config), reversed(units)):
                        rows += unit_rows
                break
            rows += _run_unit(config, units.pop())
            done += 1
    return RateStats(preset=config.name, rows=rows)


def _grid(start: float, stop: float, step: float) -> tuple:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def figure_presets() -> dict:
    """Built-in scenario presets reproducing the reference experiments.

    Indoor presets place the RIS in the near field of the Rx; the outdoor
    element-count sweep selects the regime automatically and adds a no-RIS
    baseline consuming 10 dB more transmit power; the outdoor placement
    sweeps run at 5.8 GHz with N = 1024 in forced far-field (fig5a) and
    forced near-field (fig5b) regimes.
    """
    fig3a = ExperimentConfig(
        name="fig3a",
        environment=Environment.INH,
        f_c_ghz=2.4,
        tx=Point3(0, 25, 3),
        rx=Point3(40, 48, 1.5),
        ris_center=Point3(38, 50, 3),
        ris_z_sweep=(2.0, 3.0),
        n_elements=(64, 256, 1024),
        regime_override=FieldRegime.NEAR_FIELD,
    )
    fig5a = ExperimentConfig(
        name="fig5a",
        environment=Environment.UMI,
        f_c_ghz=5.8,
        tx=Point3(0, 25, 10),
        rx=Point3(100, 50, 1),
        ris_center=Point3(70, 60, 7),
        ris_x_sweep=_grid(40.0, 98.0, 2.0),
        ris_y_sweep=_grid(52.0, 73.0, 2.0),
        n_elements=(1024,),
        regime_override=FieldRegime.FAR_FIELD,
    )
    return {
        "fig3a": fig3a,
        "fig3b": replace(
            fig3a, name="fig3b", rx=Point3(67, 45, 1.5), ris_center=Point3(70, 50, 3)
        ),
        "fig4": ExperimentConfig(
            name="fig4",
            environment=Environment.UMI,
            f_c_ghz=2.4,
            tx=Point3(0, 25, 10),
            rx=Point3(65, 52, 1),
            ris_center=Point3(62, 55, 7),
            n_elements=(16, 64, 256, 1024, 4096),
            no_ris_baseline_extra_db=10.0,
        ),
        "fig5a": fig5a,
        "fig5b": replace(
            fig5a,
            name="fig5b",
            ris_center=Point3(96, 56, 7),
            ris_x_sweep=_grid(90.0, 100.0, 2.0),
            ris_y_sweep=_grid(52.0, 60.0, 2.0),
            regime_override=FieldRegime.NEAR_FIELD,
        ),
    }
