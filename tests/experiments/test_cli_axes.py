"""Every registered value of every serving axis runs through the CLI.

One in-process ``repro.cli.main([...])`` call per cell; the value lists
come from the spec's choices table and the scheduler / placement / router
/ arrival / fault registries, so a newly registered policy value is
smoke-tested without anyone editing a matrix. Each axis rides with the
companion flags that make it do something: two cards for placement and
batching, four lanes for faults x recovery, a big and a small lane class
for routers, an open-loop trace for arrivals x late-policy.
"""

import pytest

from repro.cli import main
from repro.core.config import AXIS_CHOICES
from repro.core.pool import PLACEMENTS
from repro.core.scheduler import SCHEDULERS
from repro.faults import FAULTS
from repro.routing import ROUTERS
from repro.workloads.arrivals import ARRIVALS

FLEET = ["fleet", "--requests", "4", "--rate", "0.2", "-n", "4", "--seed", "0"]
TWO_CARDS = ["--devices", "rtx4090,rtx4070ti", "--memory-fraction", "0.9"]
FOUR_LANES = ["--devices", "rtx4090,rtx4090,rtx4090,rtx4090", "--requests", "8"]
BIG_AND_SMALL = [
    "--lane", "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8",
    "--memory-fraction", "0.9", "--placement", "least_loaded",
]
#: What each fault kind needs beyond ``at=40,lane=0`` to be well-formed; a
#: kind registered without an entry here is tried bare.
FAULT_PARAMS = {
    "crash": ",mttr=120",
    "stall": ",duration=60",
    "link_degrade": ",factor=0.25,duration=120",
    "kv_pressure": ",fraction=0.5,duration=120",
}

KV = AXIS_CHOICES["kv_sharing"]


def cell(base, **axes):
    """``base`` plus one ``--flag value`` per axis, ids like ``router=cascade``."""
    flags = [
        part for axis, value in axes.items()
        for part in ("--" + axis.replace("_", "-"), value)
    ]
    return pytest.param(
        base + flags, id=",".join(f"{axis}={value}" for axis, value in axes.items())
    )


CELLS = [
    *(cell(FLEET, scheduler=s, kv_sharing=kv) for s in SCHEDULERS.names() for kv in KV),
    *(cell(FLEET + TWO_CARDS, placement=p, kv_sharing=kv)
      for p in PLACEMENTS.names() for kv in KV),
    *(cell(FLEET + TWO_CARDS + ["--scheduler", "round_robin", "--rate", "1.0"],
           batching=b, kv_sharing=kv)
      for b in AXIS_CHOICES["batching"] for kv in KV),
    *(cell(FLEET, oversubscription=o) for o in AXIS_CHOICES["oversubscription"]),
    *(cell(FLEET, arrivals=a) for a in ARRIVALS.names()),
    *(cell(FLEET + FOUR_LANES, recovery=recovery,
           faults=f"{kind}:at=40,lane=0{FAULT_PARAMS.get(kind, '')}")
      for kind in FAULTS.names() for recovery in AXIS_CHOICES["recovery"]),
    *(cell(FLEET + BIG_AND_SMALL, router=r, kv_sharing=kv)
      for r in ["off", *ROUTERS.names()] for kv in KV),
    *(cell(["trace", "run", "--requests", "4", "--seed", "0"], late_policy=late,
           tenant=f"t0:arrival={arrival},rate=0.2,n=4,deadline=120,ttft=60")
      for arrival in ARRIVALS.names() for late in AXIS_CHOICES["late_policy"]),
]


@pytest.mark.parametrize("argv", CELLS)
def test_axis_value_serves_through_the_cli(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "| requests " in out and "| completed " in out  # the metrics table
