#!/usr/bin/env python
"""Reproduce every table and figure of the paper's evaluation (E1-E9).

Runs the full reproduction pipeline and prints each artefact in the
paper's own layout, with the paper's printed numbers alongside where
the paper gives them.  Expect a few minutes of runtime; pass --fast for
a quicker, slightly noisier pass.

Run:  python examples/reproduce_paper.py [--fast]
"""

import argparse
import time

from repro.analysis import (
    ablate_prefetch,
    run_figure7,
    run_figure8,
    run_micro_validation,
    run_miss_penalty,
    run_passthrough,
    run_prefetcher_study,
    run_sata,
    run_table1,
    run_table3,
    sweep_alloc_pathology,
    sweep_burst_length,
    sweep_defer_threshold,
    table2_from_grid,
)
from repro.analysis.figure12 import Figure12Result
from repro.config import RunConfig
from repro.sim import run_figure12


def banner(text: str) -> None:
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller runs")
    args = parser.parse_args()
    fast = args.fast
    started = time.time()

    banner("E1  Table 1 — map/unmap cycle breakdown (mlx, Netperf stream)")
    print(run_table1(packets=200 if fast else 600, warmup=50 if fast else 150).render())

    banner("E2  Figure 7 — cycles per packet by component, all modes")
    print(run_figure7(packets=200 if fast else 600, warmup=50 if fast else 150).render())

    banner("E3  Figure 8 — throughput vs cycles/packet (model validation)")
    figure8 = run_figure8(packets=150 if fast else 400, warmup=40 if fast else 100)
    print(figure8.render())
    print(f"max model-vs-busywait error: {figure8.max_model_error():.2%}")

    banner("E4  Figure 12 — both setups x five benchmarks x seven modes")
    grid = run_figure12(config=RunConfig.from_env(fast=fast))
    print(Figure12Result(grid=grid).render())

    banner("E5  Table 2 — normalised performance (measured vs paper)")
    print(table2_from_grid(grid).render())

    banner("E6  Table 3 — Netperf RR round-trip times")
    print(run_table3(transactions=80 if fast else 200, warmup=20 if fast else 40).render())

    banner("E7  Section 5.3 — IOTLB miss penalty")
    print(run_miss_penalty(sends=1500 if fast else 4000).render())

    banner("E8  Section 5.4 — TLB prefetchers vs rIOTLB")
    print(run_prefetcher_study(packets=150 if fast else 400).render())

    banner("E9  Section 4 — SATA/Bonnie++: strict vs none indistinguishable")
    print(run_sata(requests=10 if fast else 40).render())

    banner("E10 Section 5.1 — pass-through revalidation (HWpt vs SWpt)")
    print(run_passthrough(packets=150 if fast else 300).render())

    if not fast:
        banner("Ablations — design-choice sensitivity")
        print(sweep_burst_length(packets=300, warmup=60).render())
        print()
        print(sweep_defer_threshold(packets=300, warmup=60).render())
        print()
        print(ablate_prefetch(packets=300).render())
        print()
        print(sweep_alloc_pathology(requests=120).render())
        banner("MICRO validation — ordering without Table 1")
        print(run_micro_validation(packets=300, warmup=60).render())

    print(f"\nAll experiments reproduced in {time.time() - started:.0f}s.")


if __name__ == "__main__":
    main()
