"""Command-line front end: run presets or user configs, validate, list."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .experiment import (
    ExperimentConfig,
    _stream_words,
    figure_presets,
    run_experiment,
)
from .geometry import Point3
from .largescale import Environment, load_scenario_params
from .channel import nearfield_plate_gain
from .link import LinkBudget, evaluate_link
from .oracles import SubdivisionSpec, nearfield_gain_subdivided, phase_grid_search

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rissim",
        description="Link-level simulator for RIS-assisted SISO links in sub-6 GHz bands",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_run_options(p):
        p.add_argument("--output", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument(
            "--workers", type=_worker_count, default=1,
            help="most processes for the sweep (default 1); a sweep projected to take "
            "under half a second runs in-process, and the pool never exceeds the usable "
            "cores or the units of work left; the output is the same for any value",
        )

    run = sub.add_parser("run", help="run an experiment from a JSON config file")
    run.add_argument("--config", required=True, help="path to the JSON config")
    add_run_options(run)

    preset = sub.add_parser("preset", help="run a built-in scenario preset")
    preset.add_argument("name", help="preset name (see list-presets)")
    add_run_options(preset)

    sub.add_parser("validate", help="run the built-in oracle checks")
    sub.add_parser("list-presets", help="list built-in presets and coordinates")
    return parser


def _sweep(args) -> int:
    """Read the config or preset, apply the overrides, check ``--output``, run and write.

    Everything but the sweep itself is checked first, so bad input exits 1
    before any work; the output file is written only once the sweep is done,
    and not at all when every point failed, which exits 2.
    """
    try:
        if args.verb == "run":
            with open(args.config, "r") as f:
                config = ExperimentConfig.from_dict(json.load(f))
        else:
            presets = figure_presets()
            if args.name not in presets:
                raise ValueError(
                    f"unknown preset {args.name!r}; available: {', '.join(sorted(presets))}"
                )
            config = presets[args.name]
        seed = args.seed if args.seed is not None else config.master_seed
        trials = args.trials if args.trials is not None else config.trials
        config = replace(config, master_seed=seed, trials=trials)
        if args.output and os.path.isdir(args.output):
            raise ValueError(f"--output {args.output!r} is a directory")
        if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
            raise ValueError(f"--output {args.output!r} is in a directory that does not exist")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        stats = run_experiment(config, workers=args.workers)
        failed = [row for row in stats.rows if row.error is not None]
        if failed:
            print(f"{len(failed)} of {len(stats.rows)} sweep points failed:", file=sys.stderr)
            for row in failed:
                print(f"  point {row.index}: {row.error}", file=sys.stderr)
        if len(failed) == len(stats.rows):
            print("runtime error: every sweep point failed; nothing written", file=sys.stderr)
            return EXIT_RUNTIME_ERROR
        text = stats.to_csv_text() if args.format == "csv" else stats.to_json_text()
        if args.output:
            with open(args.output, "w", newline="") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


def _cmd_list_presets() -> int:
    for name, config in figure_presets().items():
        tx, rx, ris = config.tx, config.rx, config.ris_center
        print(
            f"{name}: {config.environment.value} @ {config.f_c_ghz} GHz, "
            f"tx=({tx.x:g},{tx.y:g},{tx.z:g}), rx=({rx.x:g},{rx.y:g},{rx.z:g}), "
            f"ris=({ris.x:g},{ris.y:g},{ris.z:g}), N={list(config.n_elements)}"
        )
    return EXIT_OK


def _cmd_validate() -> int:
    rng = np.random.default_rng(12345)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        failures += not ok

    worst = 0.0
    for _ in range(20):
        side = rng.uniform(0.02, 0.15)
        center = Point3(rng.uniform(-1, 1), 0.0, rng.uniform(-1, 1))
        rx = Point3(
            center.x + rng.uniform(-10, 10) * side,
            rng.uniform(0.5, 30) * side,
            center.z + rng.uniform(-10, 10) * side,
        )
        whole = nearfield_plate_gain(center, side, rx)
        for k in (2, 4, 8):
            sub = nearfield_gain_subdivided(center, side, rx, SubdivisionSpec(k))
            worst = max(worst, abs(sub - whole) / abs(whole))
    report("near-field subdivision additivity", worst < 1e-10, f"worst rel {worst:.2e}")

    side = 0.0625
    ratios = []
    for mult in (10, 30, 100):
        y = mult * side
        gain = nearfield_plate_gain(Point3(0, 0, 0), side, Point3(0, y, 0))
        ratios.append(gain * 4 * np.pi * y**2 / side**2)
    ok = abs(ratios[0] - 1) < 0.01 and abs(ratios[2] - 1) <= abs(ratios[0] - 1)
    report("near-field far-distance limit", ok, f"ratios {[f'{r:.5f}' for r in ratios]}")

    budget = LinkBudget(p_t_mw=1.0, n_0_mw=1.0)
    ok = True
    worst_gap = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h_siso = complex(rng.standard_normal() + 1j * rng.standard_normal())
        snr_opt = evaluate_link(h, g, h_siso, budget).snr_linear
        snr_grid = phase_grid_search(h, g, h_siso, 100, budget)
        gap = (snr_opt - snr_grid) / snr_opt
        worst_gap = max(worst_gap, abs(gap))
        ok = ok and snr_opt >= snr_grid - 1e-12 and abs(gap) < 1e-3
    report("closed-form SNR beats grid search", ok, f"worst gap {worst_gap:.2e}")

    # Building a table is where a correlation matrix that is not PSD raises.
    try:
        for env in Environment:
            for los in (True, False):
                load_scenario_params(env, los)
        ok = True
    except ValueError:
        ok = False
    report("shipped correlation matrices are PSD", ok)

    # Sign bits are drawn as float32 uniforms, whose >= 0.5 is the top bit of
    # the 32-bit word integers(0, 2) reads; a numpy that reads those words
    # otherwise would change every result. Odd counts leave half a word.
    ok = True
    for seed in (0, 7, 2024, 2**70 + 5):
        drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (1, 3, 12, 19, 20):
            bits = drawn.random(count, dtype=np.float32) >= 0.5
            ok = ok and np.array_equal(bits, expected.integers(0, 2, size=count))
            normals = drawn.standard_normal(count), expected.standard_normal(count)
            ok = ok and np.array_equal(*normals)
            ok = ok and drawn.bit_generator.state == expected.bit_generator.state
    report("float32 sign bits match integers(0, 2)", ok)

    # A chunk derives the state words of all its rows in one call, rows of
    # several sweep points and keys up to 2**32 - 1 among them.
    ok = True
    indices, trials = (0, 0, 329, 2**32 - 1, 7), (0, 1999, 5, 2**32 - 1, 2**32 - 1)
    for seed in (0, 2**32, 2**70 + 5):
        words = _stream_words(seed, indices, trials)
        for row, (index, trial) in enumerate(zip(indices, trials)):
            for k in range(3):
                key = np.random.SeedSequence(seed, spawn_key=(index, trial, k))
                ok = ok and np.array_equal(words[row, k], key.generate_state(4, np.uint64))
    report("chunk state words match their SeedSequence keys", ok)

    return EXIT_OK if failures == 0 else EXIT_RUNTIME_ERROR


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report config errors as 1.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG_ERROR
    if args.verb in ("run", "preset"):
        return _sweep(args)
    if args.verb == "validate":
        return _cmd_validate()
    return _cmd_list_presets()


if __name__ == "__main__":
    sys.exit(main())
