"""Scenario presets, Monte Carlo driver and result statistics.

A sweep enumerates RIS placements (z heights or an x/y grid) and element
counts. Every (sweep point, trial) pair derives its own RNG streams from the
master seed by counter-based key derivation, so results are bit-identical
regardless of execution order or parallelism.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from itertools import repeat
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .array_response import STEERING_CONVENTIONS, ElementPattern
# The engine calls no one-trial link function; tx_ris_channel, ris_rx_farfield
# and siso_channel stay importable here, where benchmarks/layertrace.py wraps them.
from .channel import (  # noqa: F401
    _CHUNK_BYTES,
    ChannelRealization,
    FieldRegime,
    _direct_link,
    _LinkChunk,
    _panel_link,
    ris_rx_farfield,
    ris_rx_nearfield,
    select_field_regime,
    siso_channel,
    tx_ris_channel,
)
from .geometry import CarrierConfig, PanelGeometry, Point3
from .largescale import Environment
from .link import LinkBudget, evaluate_link

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


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration: RIS placement, size and transmit power."""

    ris_x: float
    ris_y: float
    ris_z: float
    n_elements: int
    p_t_dbm: float


@dataclass(frozen=True)
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
    baseline) evaluates the direct link alone.
    """

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
    spacing_m: Optional[float] = None
    boresight: str = "+y"
    p_t_dbm: float = 20.0
    n_0_dbm: float = -130.0
    trials: int = 2000
    master_seed: int = 2024
    regime_override: Optional[FieldRegime] = None
    no_ris_baseline_extra_db: Optional[float] = None
    element_pattern_q: float = 0.285
    steering_convention: str = "reference"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.n_elements) == 0:
            raise ValueError("n_elements sweep must be non-empty")
        for axis in (self.ris_x_sweep, self.ris_y_sweep, self.ris_z_sweep):
            if axis is not None and len(axis) == 0:
                raise ValueError("sweep axes must be non-empty when given")
        for key in ("f_c_ghz", "element_pattern_q", "spacing_m"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ValueError(f"{key} must be positive, got {value}")
        if self.boresight not in ("+y", "-y"):
            raise ValueError(f"boresight must be '+y' or '-y', got {self.boresight!r}")
        if self.steering_convention not in STEERING_CONVENTIONS:
            raise ValueError(
                f"steering_convention must be one of {', '.join(STEERING_CONVENTIONS)}, "
                f"got {self.steering_convention!r}"
            )
        bad = [n for n in self.n_elements if n < 0 or math.isqrt(n) ** 2 != n]
        if bad:
            raise ValueError(f"n_elements entries must be 0 or perfect squares, got {bad}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")

    def spacing(self) -> float:
        """Inter-element spacing: configured value or half a wavelength."""
        if self.spacing_m is not None:
            return self.spacing_m
        return CarrierConfig(self.f_c_ghz).wavelength_m / 2.0

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

    def write(self, path, fmt: str = "csv") -> None:
        text = self.to_csv_text() if fmt == "csv" else self.to_json_text()
        with open(path, "w", newline="") as f:
            f.write(text)


# Constants of numpy's ``SeedSequence``: the hash that fills its entropy
# pool, the mix of two pool words and the hash that reads the pool out.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# The readout's hash constants: word j is xor-ed with entry j, multiplied by entry j + 1.
_READOUT = tuple(_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK32 for j in range(9))


def _words32(value: int) -> list:
    """A non-negative integer as little-endian 32-bit words; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_in(pool: tuple, hash_const: int, words) -> tuple:
    """(pool, hash constant) after mixing entropy words past the pool size.

    Every word is hashed once per pool word and mixed into it, as
    ``SeedSequence`` does with entropy beyond its first four words.
    """
    for word in words:
        mixed = []
        for current in pool:
            next_const = hash_const * _MULT_A & _MASK32
            value = (word ^ hash_const) * next_const & _MASK32
            hash_const = next_const
            value = (_MIX_L * current - _MIX_R * (value ^ value >> 16)) & _MASK32
            mixed.append(value ^ value >> 16)
        pool = tuple(mixed)
    return pool, hash_const


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple:
    """(pool, hash constant) of ``SeedSequence(master_seed, spawn_key=...)``
    after the seed's own words, before the spawn key's.

    The pool is that of ``SeedSequence(master_seed)``, which hashes missing
    seed words as zeros just as a spawn key's zero padding does. The hash
    constant has advanced once per pool word for each of the (at least four)
    seed words.
    """
    from numpy.random import SeedSequence

    n_words = max(_POOL_SIZE, len(_words32(master_seed)))
    pool = tuple(int(word) for word in SeedSequence(master_seed).pool)
    return pool, _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32) & _MASK32


def _state_words(pool: tuple) -> list:
    """``generate_state(4, uint64)`` of a ``SeedSequence`` with this pool."""
    out = []
    for j in range(8):
        value = (pool[j % _POOL_SIZE] ^ _READOUT[j]) * _READOUT[j + 1] & _MASK32
        out.append(value ^ value >> 16)
    return [out[j] | out[j + 1] << 32 for j in range(0, 8, 2)]


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
            return np.array(self.words, dtype=np.uint64)

    return lambda words: Generator(PCG64(StateWords(words)))


def _trial_rngs(master_seed: int, sweep_index: int, trial: int):
    """Three independent generators (h, direct, g) for one trial.

    Generator k is ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(sweep_index, trial, k))))``, the k-th child ``spawn`` would
    make of ``SeedSequence(master_seed, spawn_key=(sweep_index, trial))``.
    Its state words are computed here with ``SeedSequence``'s integer
    arithmetic: the seed's part of the pool once per seed, the shared
    (sweep_index, trial) part once per trial.
    """
    pool, hash_const = _seed_pool(master_seed)
    pool, hash_const = _mix_in(pool, hash_const, _words32(sweep_index) + _words32(trial))
    make = _generator_from_words()
    return tuple(
        make(_state_words(_mix_in(pool, hash_const, (k,))[0])) for k in range(3)
    )


# The links of a trial in the order of the generators ``_trial_rngs`` returns.
_STREAMS = ("tx_ris", "tx_rx", "ris_rx")


def _chunk_trials(links) -> int:
    """Trials per chunk that keep a chunk's working set within ``_CHUNK_BYTES``.

    Counts what the stages hold per trial, as measured with tracemalloc: for
    each of the C*S rays about eight float64 values on a panel link (the
    stacked draws, ray angles, phases, mask, the surviving rays' values) and
    four on the direct link, and on a panel link 64 bytes per element (the
    complex assembly grid and channel vector, and link evaluation's float
    temporaries). The steering block is left out: assembly builds it in
    tiles within the same budget. The estimate depends on the point alone,
    never on ``workers``.
    """
    per_trial = 0
    for link in links:
        rays = max(p.cluster_count * p.rays_per_cluster for p in link.params.values())
        if link.panel is None:
            per_trial += 8 * 4 * rays
        else:
            per_trial += 8 * 8 * rays + 64 * link.panel.n_elements
    return max(1, _CHUNK_BYTES // per_trial)


@dataclass(frozen=True)
class _Chunk:
    """All three channels of a chunk of trials.

    ``h`` and ``g`` are (T, N) (N = 0 without a panel), ``h_siso`` is (T,);
    ``links`` maps "tx_ris", "ris_rx" and "tx_rx" to each stochastic link's
    ``_LinkChunk`` (None for an absent or near-field link).
    """

    h: np.ndarray
    g: np.ndarray
    h_siso: np.ndarray
    links: dict


class _PointChannels:
    """Per-point constants of one sweep point and its chunked trial engine.

    ``place`` builds the panel, selects the RIS-Rx regime, computes the
    deterministic near-field ``g`` and every stochastic link's constants
    once. ``chunk`` draws each trial of a chunk from that trial's own RNG
    streams, then maps the draws of all of them at once. Without elements
    (the no-RIS baseline) ``h`` and ``g`` are empty. ``place`` is apart from
    the constructor so that a point whose geometry fails still reports the
    regime selected before the failure.
    """

    def __init__(self, config: ExperimentConfig, sweep_index: int):
        self.config = config
        self.sweep_index = sweep_index
        self.carrier = CarrierConfig(config.f_c_ghz)
        self.pattern = ElementPattern(config.element_pattern_q)
        self.panel = None
        self.regime = FieldRegime.FAR_FIELD
        self.near = None
        self.links = {}
        self.chunk_trials = 1

    @property
    def regime_name(self) -> str:
        return self.regime.value if self.panel is not None else "none"

    def place(self, point: SweepPoint) -> "_PointChannels":
        config = self.config
        env, carrier = config.environment, self.carrier
        links = {"tx_ris": None, "ris_rx": None}
        if point.n_elements > 0:
            self.panel = PanelGeometry.centered(
                Point3(point.ris_x, point.ris_y, point.ris_z),
                point.n_elements,
                config.spacing(),
                config.boresight,
            )
            self.regime = select_field_regime(
                self.panel, config.rx, carrier, config.regime_override
            )
            if self.regime is FieldRegime.NEAR_FIELD:
                self.near = ris_rx_nearfield(self.panel, config.rx, carrier)
            panel_args = (self.panel, carrier, self.pattern, config.steering_convention)
            links["tx_ris"] = _panel_link("tx_ris", env, config.tx, *panel_args)
            if self.near is None:
                links["ris_rx"] = _panel_link("ris_rx", env, config.rx, *panel_args)
        links["tx_rx"] = _direct_link(env, config.tx, config.rx, carrier)
        self.links = links
        self.chunk_trials = _chunk_trials(link for link in links.values() if link is not None)
        return self

    def chunk(self, trials) -> _Chunk:
        """Channels of the given trials: a draw loop, then one mapping pass."""
        config = self.config
        active = {kind: link for kind, link in self.links.items() if link is not None}
        draws = {kind: [] for kind in active}
        for t in trials:
            rngs = dict(zip(_STREAMS, _trial_rngs(config.master_seed, self.sweep_index, t)))
            for kind, link in active.items():
                draws[kind].append(link.draw(rngs[kind]))
        links = {
            kind: None if link is None else _LinkChunk.generate(link, draws[kind])
            for kind, link in self.links.items()
        }
        h_siso = links["tx_rx"].values
        if self.panel is None:
            h = g = np.zeros((h_siso.size, 0), dtype=complex)
        elif self.near is None:
            h, g = links["tx_ris"].values, links["ris_rx"].values
        else:
            h = links["tx_ris"].values
            g = np.broadcast_to(self.near[0], h.shape)
        return _Chunk(h, g, h_siso, links)

    def trial(self, trial: int) -> ChannelRealization:
        """One trial's channels and metadata: the engine on a chunk of one."""
        chunk = self.chunk([trial])
        meta = {
            kind: None if link is None else link.metadata(0)
            for kind, link in chunk.links.items()
        }
        if self.near is not None:
            meta["ris_rx"] = self.near[1]
        return ChannelRealization(
            h=chunk.h[0],
            g=chunk.g[0] if self.near is None else self.near[0],
            g_regime=self.regime,
            h_siso=complex(chunk.h_siso[0]),
            metadata=meta,
        )


def generate_realization(
    config: ExperimentConfig,
    point: SweepPoint,
    sweep_index: int,
    trial: int,
) -> ChannelRealization:
    """Generate the full channel realization for one (sweep point, trial)."""
    return _PointChannels(config, sweep_index).place(point).trial(trial)


def _run_sweep_point(config: ExperimentConfig, index: int, point: SweepPoint) -> SweepResult:
    """Monte Carlo statistics of one sweep point, evaluated in chunks of trials.

    Any exception from the point becomes its error row, so the rest of the
    sweep completes: a ``ValueError`` (bad geometry) keeps its message, any
    other exception is written as ``"<Type>: <message>"``.
    """
    budget = LinkBudget.from_dbm(point.p_t_dbm, config.n_0_dbm)
    channels = _PointChannels(config, index)
    trials = config.trials

    rates = np.empty(trials)
    snrs = np.empty(trials)
    los_h = 0
    los_siso = 0

    try:
        channels.place(point)
        for start in range(0, trials, channels.chunk_trials):
            stop = min(start + channels.chunk_trials, trials)
            chunk = channels.chunk(range(start, stop))
            result = evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget)
            rates[start:stop] = result.rate_bps_hz
            snrs[start:stop] = result.snr_linear
            if chunk.links["tx_ris"] is not None:
                los_h += int(chunk.links["tx_ris"].los.sum())
            los_siso += int(chunk.links["tx_rx"].los.sum())
    except Exception as exc:
        nan = float("nan")
        error = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        return SweepResult(
            index, point, nan, nan, nan, nan, nan, channels.regime_name, trials,
            config.master_seed, error=error,
        )

    mean_snr = float(np.mean(snrs))
    return SweepResult(
        index=index,
        point=point,
        mean_rate_bps_hz=float(np.mean(rates)),
        std_rate=float(np.std(rates, ddof=1)) if trials > 1 else 0.0,
        mean_snr_db=10.0 * math.log10(mean_snr) if mean_snr > 0 else float("-inf"),
        los_fraction_txris=los_h / trials if point.n_elements > 0 else float("nan"),
        los_fraction_txrx=los_siso / trials,
        regime=channels.regime_name,
        trials=trials,
        seed=config.master_seed,
    )


# (get, set) thread-count entry points: numpy's bundled OpenBLAS, then a plain one.
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_funcs():
    """(get, set) thread-count functions of the OpenBLAS loaded in this process.

    None when no loaded library exports them, or when the process's mapped
    libraries cannot be listed (``/proc/self/maps`` exists on Linux only).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
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


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RateStats:
    """Run the full sweep.

    Sweep points are independent units of work; with ``workers`` > 1 they are
    distributed over processes. Results are merged in sweep-index order, so
    the output is identical for any worker count. The process pool is the
    only parallelism: every process runs the sweep with one BLAS thread, since
    the matrix products of one trial are too small to gain from more, and
    the caller's thread count is restored afterwards.
    """
    points = config.sweep_points()
    indices = range(len(points))
    previous = _set_blas_threads(1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
            ) as pool:
                rows = list(pool.map(_run_sweep_point, repeat(config), indices, points))
        else:
            rows = list(map(_run_sweep_point, repeat(config), indices, points))
    finally:
        if previous is not None:
            _set_blas_threads(previous)
    rows.sort(key=lambda r: r.index)
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
    presets = {
        "fig3a": ExperimentConfig(
            name="fig3a",
            environment=Environment.INH,
            f_c_ghz=2.4,
            tx=Point3(0, 25, 3),
            rx=Point3(40, 48, 1.5),
            ris_center=Point3(38, 50, 3),
            ris_z_sweep=(2.0, 3.0),
            n_elements=(64, 256, 1024),
            boresight="-y",
            regime_override=FieldRegime.NEAR_FIELD,
        ),
        "fig3b": ExperimentConfig(
            name="fig3b",
            environment=Environment.INH,
            f_c_ghz=2.4,
            tx=Point3(0, 25, 3),
            rx=Point3(67, 45, 1.5),
            ris_center=Point3(70, 50, 3),
            ris_z_sweep=(2.0, 3.0),
            n_elements=(64, 256, 1024),
            boresight="-y",
            regime_override=FieldRegime.NEAR_FIELD,
        ),
        "fig4": ExperimentConfig(
            name="fig4",
            environment=Environment.UMI,
            f_c_ghz=2.4,
            tx=Point3(0, 25, 10),
            rx=Point3(65, 52, 1),
            ris_center=Point3(62, 55, 7),
            n_elements=(16, 64, 256, 1024, 4096),
            boresight="-y",
            no_ris_baseline_extra_db=10.0,
        ),
        "fig5a": ExperimentConfig(
            name="fig5a",
            environment=Environment.UMI,
            f_c_ghz=5.8,
            tx=Point3(0, 25, 10),
            rx=Point3(100, 50, 1),
            ris_center=Point3(70, 60, 7),
            ris_x_sweep=_grid(40.0, 98.0, 2.0),
            ris_y_sweep=_grid(52.0, 73.0, 2.0),
            n_elements=(1024,),
            boresight="-y",
            regime_override=FieldRegime.FAR_FIELD,
        ),
        "fig5b": ExperimentConfig(
            name="fig5b",
            environment=Environment.UMI,
            f_c_ghz=5.8,
            tx=Point3(0, 25, 10),
            rx=Point3(100, 50, 1),
            ris_center=Point3(96, 56, 7),
            ris_x_sweep=_grid(90.0, 100.0, 2.0),
            ris_y_sweep=_grid(52.0, 60.0, 2.0),
            n_elements=(1024,),
            boresight="-y",
            regime_override=FieldRegime.NEAR_FIELD,
        ),
    }
    return presets
