"""Pinned h-relation streams of the bspbench emulation.

``measure_h_relations`` runs ``samples`` noisy engine calls per h, one
replication each, from one generator.  Each case pins the sha256 of the
``(hs, times)`` output, so a change that moves any draw fails here with
no tolerance.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.bspbench import measure_h_relations
from repro.cluster import presets
from repro.machine.simmachine import SimMachine


def _machine() -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=23
    )


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


#: sha256 of ``(hs, times)`` per process count (round-robin placement).
H_RELATION_PINS = {
    4: (
        "04263210c242c046469ed4c52bab1d3f"
        "5b95f17f46c107dc9678b1215563dc29"
    ),
    16: (
        "a6f7ed2c55d07c7182ed827bd780db14"
        "00309a9707de61caa23963f9539c5d16"
    ),
}


@pytest.mark.parametrize("nprocs", sorted(H_RELATION_PINS))
def test_h_relation_stream_pinned(nprocs):
    hs, times = measure_h_relations(
        _machine(), nprocs, h_values=(0, 1, 17, 64, 255), samples=5
    )
    assert hs == [0, 1, 17, 64, 255]
    assert _digest(hs, times) == H_RELATION_PINS[nprocs]

