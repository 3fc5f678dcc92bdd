"""rissim Monte Carlo throughput benchmark.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload farfield_n1024 --seed 2024 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Both check the program's output: every sweep point
must be free of errors, repeat exactly in every sweep of the run, match the
per-trial path ``generate_realization`` on the workload's check points and,
for seeds with a stored reference, match the reference to 1e-9 relative.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics by name with their units, and the full record
(environment, samples, checks) goes to ``.bench_out/`` in the checkout.
NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json

from checkout import OUT_DIR, use_checkout_sources


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    use_checkout_sources()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    record = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} workers={record['workers']} "
        f"points={record['points']} trials={record['trials']} nproc={env['nproc']} "
        f"blas={env['blas']['name']} {env['blas']['version']} "
        f"blas_thread_env={env['blas_thread_env']} start={env['start_method']} "
        f"src_lines={env['src_lines']}"
    )
    print(
        f"  checks: reference {record['reference_check']}, "
        f"cross-path {record['cross_path_check']}, "
        f"failed {record['failed']}/{record['attempted']} points"
        + "".join(f"; {p}" for p in record["problems"])
    )
    metrics = record["metrics"]
    for metric, (value, unit) in metrics.items():
        better = measure.END_TO_END.get(metric, (None, None))[1]
        print(f"  {metric} = {value} {unit}" + (f" ({better} is better)" if better else ""))
    if not args.trace:
        print(f"  failed_point_frac = {record['failed_point_frac']} fraction (lower is better)")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
