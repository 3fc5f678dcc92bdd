"""Write the stored per-point references of every workload.

Usage, from the root of a checkout:

    python3 benchmarks/make_references.py

Each workload is swept once per reference seed with ``workers=1``, so a
match by the ``nsweep_pool`` run (two workers) also shows that the output
does not depend on the worker count. Rewrite the references only on purpose:
a change that alters any per-point mean by more than 1e-9 relative fails
the benchmark's check until they are rewritten.
"""

from __future__ import annotations

import json

from checkout import use_checkout_sources


def main() -> None:
    use_checkout_sources()
    from rissim import run_experiment

    from measure import REFERENCE_DIR, reference_path, reference_record
    from workloads import REFERENCE_SEEDS, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            stats = run_experiment(workload.config(seed), workers=1)
            path = reference_path(name, seed)
            ref = reference_record(name, seed, stats)
            points = ",\n".join(json.dumps(p) for p in ref.pop("points"))
            path.write_text(json.dumps(ref)[:-1] + ', "points": [\n' + points + "\n]}\n")
            print(f"wrote {path.name}: {len(stats.rows)} points")


if __name__ == "__main__":
    main()
