"""Pinned noisy event-engine streams, one per family and call shape.

The noisy path's draw order is contractual (``docs/engine.md``): the
exits of :func:`simulate_stages_batch` are a pure function of the
truth, the stages, the payloads, the entry clocks and the generator
state.  Each case runs one call and pins the sha256 of its exits, so a
change to how the engine sets a stage up — plans, node maps, noise
kernels — that moves any draw or any event time fails here with no
tolerance.  The KS checks in ``test_engine_batch.py`` only bound the
ensemble; these pin the individual runs.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import presets
from repro.machine.simmachine import SimMachine
from repro.obs.provenance import EngineProvenance
from repro.simmpi.engine import simulate_stages_batch

from .test_engine_batch import FAMILIES, make_pattern

P = 16  # two xeon-8x2x4 nodes under round-robin: remote and local traffic


def _machine() -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=77
    )


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _payloads(num_stages: int, p: int):
    return [
        np.fromfunction(lambda i, j: 8.0 * (i + 2 * j + s), (p, p))
        for s in range(num_stages)
    ]


def _run(family, runs, payload_kind, entry_kind, provenance=None):
    machine = _machine()
    pattern = make_pattern(family, P)
    p = pattern.nprocs
    truth = machine.comm_truth(machine.placement(p))
    payload = (
        None if payload_kind == "none" else _payloads(pattern.num_stages, p)
    )
    entry = None
    if entry_kind == "skew":
        skew = machine.rng("pin-skew", family, runs)
        entry = skew.integers(0, 5, (runs, p)) * 2.5e-6
    return simulate_stages_batch(
        truth, pattern.stages, runs=runs, payload_bytes=payload,
        rng=machine.rng("pin", family, runs, payload_kind, entry_kind),
        noise=machine.noise, entry_times=entry, provenance=provenance,
    )


#: sha256 of the exits of every (family, runs, payload, entry) call.
PINS = {
    ("dissemination", 1, "none", "none"): (
        "9e018cbba0be62c8a57537208b0bb2b8"
        "3472613d4b53f1bef7fddc9c1ae02237"
    ),
    ("dissemination", 1, "none", "skew"): (
        "49231b10a2b7c09cc63aafe01b0e753d"
        "9df2f4e787fa322c70b276f1ce47b80d"
    ),
    ("dissemination", 1, "matrices", "none"): (
        "9f5316462b7beae3e1d12e3a7ece622d"
        "00953fa78ce47643242c528271c7cd3a"
    ),
    ("dissemination", 1, "matrices", "skew"): (
        "c8f2b84101aef68629d3d1ceedc1194b"
        "e8c1610d60cda920968acee0dcb11325"
    ),
    ("dissemination", 3, "none", "none"): (
        "b249bb0da41978d22edf005da223060a"
        "5aa2dae5c5695562e2cd74db0bacc35e"
    ),
    ("dissemination", 3, "none", "skew"): (
        "1e54764410181fd53ab16fa0d71d9ad6"
        "1b959326b6f05029f6c747a5bff8ab8f"
    ),
    ("dissemination", 3, "matrices", "none"): (
        "a155943bc76aba08140f182f25cb7516"
        "4cccc7eab3133315c9b6b9ac0bb34d1e"
    ),
    ("dissemination", 3, "matrices", "skew"): (
        "15c3bf86ec2668312ebfe064c83cb1ed"
        "70a6e56a9259cdc4ffdff5f74d7bd40e"
    ),
    ("linear", 1, "none", "none"): (
        "af20c3da9ec85c3789c780d80c200968"
        "2a369c469e97c64422a5910420ff5555"
    ),
    ("linear", 1, "none", "skew"): (
        "00f65b74d378c7c10a041020c3b92cda"
        "7a6414f4d5f74f285cb3ec6a862cc48e"
    ),
    ("linear", 1, "matrices", "none"): (
        "b9bec742aeccefa9c432bab301039f6b"
        "648d6fb88a550397c0ad324c4c2f71fd"
    ),
    ("linear", 1, "matrices", "skew"): (
        "7d35b811e0df124b59448cae128345bb"
        "88a15c6bfa278d4907e780c2e78c1821"
    ),
    ("linear", 3, "none", "none"): (
        "a2127ec39da5ef59de112c793e3fc612"
        "9736aa6ca13f371e475c8355c74252ec"
    ),
    ("linear", 3, "none", "skew"): (
        "066e90ca33e3c5d08b6bcdd12880dc76"
        "e2deb3a04b237bb07dda061171d2b4df"
    ),
    ("linear", 3, "matrices", "none"): (
        "e84b5aa5343220b21edcd7b8b3112730"
        "8ae2205efbccd77ff971e9f5f0548a7e"
    ),
    ("linear", 3, "matrices", "skew"): (
        "0d9f0f2811477b56e9b520bee1e45947"
        "389dc3a62fd49280b5487a60ee331d3e"
    ),
    ("pairwise", 1, "none", "none"): (
        "3bbe51037a1442ac38947e658f3151e8"
        "05d60ef9ab62925b13aa03c6ea97a692"
    ),
    ("pairwise", 1, "none", "skew"): (
        "65e730c085257d586e258fad81e1ec94"
        "45ee58ea8f04a160c146b8f7d0abf0a7"
    ),
    ("pairwise", 1, "matrices", "none"): (
        "e0d1a28cf089e395773a8867d722eaf7"
        "955644a0c6719b24930bff9716818cc1"
    ),
    ("pairwise", 1, "matrices", "skew"): (
        "aeca8cd35f16945bc0cba7cbf7ef24e3"
        "e6d6ed3233ec7233f853b0ec01439cbd"
    ),
    ("pairwise", 3, "none", "none"): (
        "31f3b977b700cd867929a788167577f4"
        "f674023b68f0b2abadd08c77d370e75c"
    ),
    ("pairwise", 3, "none", "skew"): (
        "b362889131b06b049cc4f152b3d91b77"
        "f12661ef5b7df8596ad3fa4e57e74560"
    ),
    ("pairwise", 3, "matrices", "none"): (
        "0e419c6ec5d845854ad941d608a40c50"
        "36941e049b4765a8113c914ddbac4e2b"
    ),
    ("pairwise", 3, "matrices", "skew"): (
        "f3812e86a6503f3b67d003f3b5734858"
        "53833dbd8de9498bc9965fc14e8f41eb"
    ),
    ("tree", 1, "none", "none"): (
        "7d2c37e7a47e0ff31917769e42e23b70"
        "ad2444fb1ed921a6d392efc002ad42b6"
    ),
    ("tree", 1, "none", "skew"): (
        "560b1bdfa8440c61596c5aae32e935ac"
        "34f99c40069e5d8aad18599991d9c905"
    ),
    ("tree", 1, "matrices", "none"): (
        "919d462bfc79db92b35f1a696e858d32"
        "095a13c2bf19d5dc26ef30fe026fd6ea"
    ),
    ("tree", 1, "matrices", "skew"): (
        "82cb23f6b40e6bad8d3d012fe99cacad"
        "2c1e922ed08bcad3574fcdb41c3f1530"
    ),
    ("tree", 3, "none", "none"): (
        "69398be6225e3adeb4fb62b2f2165eda"
        "92e86bfc01842a6783ef62b86d690977"
    ),
    ("tree", 3, "none", "skew"): (
        "82b06a0c62b2b21537af400d833fb460"
        "7a3ac7ca715efbd76c20034b9729be0f"
    ),
    ("tree", 3, "matrices", "none"): (
        "5d5eae7de342e2fb1ebbe52a18117498"
        "4173029b82cd335541756584ff2e7ea9"
    ),
    ("tree", 3, "matrices", "skew"): (
        "9b507141a66035d876d6bcc45deb6d32"
        "638c27f7f9da8a2271f353ebcdbc9046"
    ),
}

#: sha256 of one provenance-on call per family: its exits, then every
#: stage's event times and FIFO predecessor links.
PROVENANCE_PINS = {
    "dissemination": (
        "02a6700d23ca70460c43158e37f27400"
        "89c6ebe39f7b500b90ef05e763b00aa2"
    ),
    "linear": (
        "49e486eebb57c108822608993e108217"
        "8624b58dc9dfca6c6e7efa511ff0cf08"
    ),
    "pairwise": (
        "a0bc8efee0cadcdd43d0d295cbf440a6"
        "fed721e3e90bb05276b78cec49a542de"
    ),
    "tree": (
        "b9389db4e93534b4c196cf695b185be5"
        "d791cba0e4d3259c4699953d04e1bcbf"
    ),
}

CASES = [
    (family, runs, payload, entry)
    for family in sorted(FAMILIES)
    for runs in (1, 3)
    for payload in ("none", "matrices")
    for entry in ("none", "skew")
]


@pytest.mark.parametrize("family,runs,payload,entry", CASES)
def test_noisy_exits_pinned(family, runs, payload, entry):
    exits = _run(family, runs, payload, entry)
    assert exits.shape == (runs, make_pattern(family, P).nprocs)
    assert _digest(exits) == PINS[(family, runs, payload, entry)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_noisy_provenance_pinned(family):
    prov = EngineProvenance()
    exits = _run(family, 3, "matrices", "skew", provenance=prov)
    # Recording draws nothing: the exits match the untraced call's pin.
    assert _digest(exits) == PINS[(family, 3, "matrices", "skew")]
    arrays = [exits]
    for st in prov.stages:
        arrays += [
            st.src, st.dst, st.src_nodes, st.dst_nodes, st.msg_remote,
            st.after_inv, st.departs, st.wire_entry, st.tx_pred,
            st.arrivals, st.deliver, st.rx_pred, st.handles, st.recv_pred,
            st.acks, st.busy_end, st.exit,
        ]
    assert _digest(*arrays) == PROVENANCE_PINS[family]
