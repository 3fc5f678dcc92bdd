"""Command-line front end: run presets or user configs, validate, list."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .experiment import ExperimentConfig, figure_presets, run_experiment
from .geometry import Point3
from .largescale import Environment, load_scenario_params
from .channel import nearfield_plate_gain
from .link import LinkBudget, evaluate_link
from .oracles import SubdivisionSpec, nearfield_gain_subdivided, phase_grid_search

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2

SEED_ENV_VAR = "RIS_SIM_SEED"


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
        p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")

    run = sub.add_parser("run", help="run an experiment from a JSON config file")
    run.add_argument("--config", required=True, help="path to the JSON config")
    add_run_options(run)

    preset = sub.add_parser("preset", help="run a built-in scenario preset")
    preset.add_argument("name", help="preset name (see list-presets)")
    add_run_options(preset)

    sub.add_parser("validate", help="run the built-in oracle checks")
    sub.add_parser("list-presets", help="list built-in presets and coordinates")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    seed = config.master_seed
    if os.environ.get(SEED_ENV_VAR):
        seed = int(os.environ[SEED_ENV_VAR])
    if args.seed is not None:
        seed = args.seed
    trials = args.trials if args.trials is not None else config.trials
    return replace(config, master_seed=seed, trials=trials)


def _run_and_emit(config: ExperimentConfig, args) -> int:
    try:
        stats = run_experiment(config, workers=args.workers)
        failed = [row for row in stats.rows if row.error is not None]
        if failed:
            print(f"{len(failed)} of {len(stats.rows)} sweep points failed:", file=sys.stderr)
            for row in failed:
                print(f"  point {row.index}: {row.error}", file=sys.stderr)
        if args.output:
            stats.write(args.output, args.format)
        else:
            text = stats.to_csv_text() if args.format == "csv" else stats.to_json_text()
            sys.stdout.write(text)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r") as f:
            config = ExperimentConfig.from_dict(json.load(f))
        config = _apply_overrides(config, args)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return _run_and_emit(config, args)


def _cmd_preset(args) -> int:
    presets = figure_presets()
    if args.name not in presets:
        print(
            f"unknown preset {args.name!r}; available: {', '.join(sorted(presets))}",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR
    try:
        config = _apply_overrides(presets[args.name], args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return _run_and_emit(config, args)


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

    ok = True
    for env in Environment:
        for los in (True, False):
            params = load_scenario_params(env, los)
            eigs = np.linalg.eigvalsh(params.correlation_factor() @ params.correlation_factor())
            ok = ok and eigs.min() > -1e-9
    report("shipped correlation matrices are PSD", ok)

    return EXIT_OK if failures == 0 else EXIT_RUNTIME_ERROR


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report config errors as 1.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG_ERROR
    if args.verb == "run":
        return _cmd_run(args)
    if args.verb == "preset":
        return _cmd_preset(args)
    if args.verb == "validate":
        return _cmd_validate()
    return _cmd_list_presets()


if __name__ == "__main__":
    sys.exit(main())
