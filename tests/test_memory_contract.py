"""Every task's memory along its orbit-length axis.

Beyond its rows, a task's memory must not grow with the length of the orbits it
walks.  Each task in cli.TASKS declares its orbit-length parameters in LENGTHS, or
an empty dict when it has none, and every other integer parameter is named in
EXEMPT or NOT_LENGTH with its reason, so a new task or parameter must be classified
before the suite passes.  A task with length parameters is run in process under
tracemalloc at its base size and at 8 times each of them, and its traced peak may
grow by SLACK at most.  Sample counts are covered by test_lyapunov.py::TestStreaming.
"""

import tracemalloc

import pytest

from skewcmv.cli import TASKS, config_from_doc, run

SCHEME_DOC = {
    "coefficients": [[1, 0, 0.5, 0.0], [0, 1, 0.3, 0.2]],
    "lambda": 0.9,
    "omega": 0.6180339887498949,
    "base_x": 0.1,
    "base_y": 0.2,
}
# sizes that take memory by design; the test holds them at their base values
EXEMPT = {
    "size": "a dense window of N sites is O(N^2) by design",
    "max_size": "a dense window of N sites is O(N^2) by design",
    "n_min": "detform-check's transfer matrix is read off two dense N x N windows",
    "n_max": "detform-check's transfer matrix is read off two dense N x N windows",
    "count": "avalanche holds its count blocks by design",
    "instances": "sets the number of rows",
}
# integer parameters that are not lengths at all
NOT_LENGTH = {
    "z_circle": "sets the number of z, so of rows",
    "grid_side": "a phase count: sample counts are checked by TestStreaming",
    "a": "a site offset",
}
# each task's orbit-length parameters at base size
LENGTHS = {
    "lyapunov": {"n": 256},
    "ldt": {"n_list": [64, 100, 256]},
    "avalanche": {"block": 128},
    "multiscale": {"n": 2, "N": 256},  # N >= n**2 holds at 8x too
    "positivity": {"n": 256},
    "uniform-bound": {"n0": 32, "N": 256},
    "green-check": {},
    "davis-simon": {},
    "restriction-check": {},
    "spectrum": {},
    "localize": {"scale": 64},
    "dio-check": {"horizon": 2**17},  # two of diophantine_margin's chunks, and 16 at 8x
    "detform-check": {},
}
# the other parameters a run needs.  avalanche's cocycle mode forms its blocks a group of
# 2**16 coefficients at a time: two groups at base, 16 at 8x
OTHER = {
    "avalanche": {"mode": "cocycle", "count": 1024},
    "uniform-bound": {"grid_side": 8},
    "localize": {"size": 64},
    "dio-check": {"omega": 0.3},
}
PLAN = {"mode": "grid", "grid_side": 8, "rng_seed": 3}
# the most a traced peak may grow from base size to 8x.  Measured growth: at most 8 KiB over
# all tasks (CPython 3.11, numpy 2.4).  A walk that cut each orbit only at its n grows
# localize's by 1.1 MiB and lyapunov's by 5.7 MiB; the one-array Diophantine scan grows
# dio-check's by 35 MiB
SLACK = 256 * 2**10


def scaled(params: dict, k: int) -> dict:
    return {name: [v * k for v in value] if isinstance(value, list) else value * k for name, value in params.items()}


def peak_bytes(task: str, lengths: dict) -> int:
    cfg = config_from_doc({"task": task, "scheme": SCHEME_DOC, "params": {**OTHER.get(task, {}), **lengths},
                           "sampling": PLAN if TASKS[task].sampled else {"rng_seed": 3}})
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_task_declares_its_length_parameters():
    assert set(LENGTHS) == set(TASKS)
    assert not set(EXEMPT) & set(NOT_LENGTH)
    for task, spec in TASKS.items():
        integers = {p.name for p in spec.params if p.kind is int}
        assert set(LENGTHS[task]) <= integers, task
        unclassified = integers - set(LENGTHS[task]) - set(EXEMPT) - set(NOT_LENGTH)
        assert not unclassified, f"{task}: declare {sorted(unclassified)} in LENGTHS, EXEMPT or NOT_LENGTH"


@pytest.mark.parametrize("task", sorted(t for t, lengths in LENGTHS.items() if lengths))
def test_peak_does_not_grow_with_orbit_length(task):
    peak_bytes(task, LENGTHS[task])  # a first run's one-off allocations would inflate base
    base = peak_bytes(task, LENGTHS[task])
    long = peak_bytes(task, scaled(LENGTHS[task], 8))
    assert long - base <= SLACK, (base, long)
