"""Set-up of one workload: import binperiod and make the workload's warm-up calls.

Run as a script, it times its own set-up from before ``import binperiod`` to
after the last warm-up call, then times the speed kernel, and prints both
in seconds. The benchmark starts it several times, one process after
another, and reports the median set-up time at reference speed as
``setup_s``; the benchmark's own input generation and oracles are not in it.

    python3 perfbench/warmup.py {mc_table,limit_sampler,test_requests}
"""

import sys
import warnings
from time import perf_counter

# Fold lengths the warm-up touches; the first call at any other d happens
# inside the measured requests, as it does for a user.
WARM_D = {"mc_table": (60, 12), "limit_sampler": (2520,), "test_requests": (60,)}


def warm_up(workload: str) -> None:
    import numpy as np

    from binperiod import cli, nulldist, series, simulate, theory

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if workload == "mc_table":
            for spec in (
                simulate.ScenarioSpec(kind="CONSTANT", p1=0.5, n=1200, d=60, replications=64),
                simulate.ScenarioSpec(
                    kind="PI_DIGITS", length=120, n=120, d=12, replications=64
                ),
            ):
                simulate.estimate_power(spec)
        elif workload == "limit_sampler":
            nulldist.sample_limit_statistic(2520, np.ones(2520), 8)
        elif workload == "test_requests":
            report = cli.run_test(series.BinarySeries(np.tile([0, 1, 1], 400)), 60)
            nulldist.p_value(report.q, report.statistic)
            nulldist.critical_value(report.q, 0.05)
            theory.detectability(theory.PeriodicProfile([0.25, 0.5, 0.75]), 60)
        else:
            raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    t0 = perf_counter()
    warm_up(sys.argv[1])
    setup_s = perf_counter() - t0
    from speed import calibrate

    print(repr(setup_s), repr(calibrate()))
