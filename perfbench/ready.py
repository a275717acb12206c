"""Set-up probe: a fresh interpreter imports idtrack and prepares a workload.

    python3 perfbench/ready.py <workload> <scratch dir>

Prints three numbers: the CLOCK_MONOTONIC reading at which it was ready,
the seconds it spent in host-speed probes before that, and the mean probe
time. The probes run here, not in the parent, so that they sample the CPU
this process runs on.
"""

import sys
import time

from hostspeed import HostSpeed

host = HostSpeed(nominal=0.0)
host.probe_mean(HostSpeed.EDGE_PROBES)

import run  # noqa: E402  (after the probes: importing is part of set-up)

run.set_up_environment()
run.Workload(sys.argv[1], run.Path(sys.argv[2]))
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
spent = host.spent
host.probe_mean(HostSpeed.EDGE_PROBES)
print(ready, spent, sum(host.durations) / len(host.durations))
