"""Row groups: several callers' replications in one engine pass.

``simulate_stages_batch``'s ``rng`` may be a sequence of ``(Generator,
rows)`` pairs.  Each group draws its rows from its generator, every stage
before the next group draws, so a grouped call is ``tobytes``-identical
to the separate calls made in group order and stacked, also when groups
share a generator (module docstring of :mod:`repro.simmpi.engine`).  A
stage's ``(runs,)`` payload vector gives each row the bytes of a
scalar-payload call.  The noise of a grouped call is drawn group by
group and applied once per (stage, kind) over all rows, with the values
of one noise kernel call per group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.barriers.patterns import (
    all_to_all_barrier,
    dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    tree_barrier,
)
from repro.cluster import presets
from repro.cluster.noise import QUIET, NoiseModel
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch

FAMILIES = (
    linear_barrier,
    tree_barrier,
    dissemination_barrier,
    pairwise_exchange_barrier,
    all_to_all_barrier,
)


#: Noise models for grouped calls: the machines' default, and one at
#: ``outlier_prob`` 0.3, where some groups of a call draw spikes and some
#: do not.
NOISES = {
    "default": NoiseModel(),
    "spiky": NoiseModel(outlier_prob=0.3),
    "no outliers": NoiseModel(outlier_prob=0.0),
    "quiet": QUIET,
}


def _machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=19
    )


def _stages(family_idx: int, p: int, empty_at: int | None):
    family = FAMILIES[family_idx]
    if family is pairwise_exchange_barrier:
        p = 1 << (p.bit_length() - 1)
    stages = list(family(p).stages)
    if empty_at is not None:
        stages.insert(empty_at % (len(stages) + 1), np.zeros((p, p), bool))
    return stages, p


def _payload(kind: str, num_stages: int, p: int):
    if kind == "none":
        return None
    if kind == "scalar":
        return 2048.0
    return [
        np.fromfunction(lambda i, j: 16.0 * (i + 3 * j + s), (p, p))
        for s in range(num_stages)
    ]


@given(
    family_idx=st.integers(0, len(FAMILIES) - 1),
    p=st.integers(2, 20),
    rows=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seeds=st.lists(st.integers(0, 2**31), min_size=4, max_size=4),
    payload_kind=st.sampled_from(["none", "scalar", "matrices"]),
    entry_kind=st.sampled_from(["none", "shared", "per-row"]),
    empty_at=st.one_of(st.none(), st.integers(0, 8)),
    clean=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_grouped_call_equals_separate_calls(
    family_idx, p, rows, seeds, payload_kind, entry_kind, empty_at, clean
):
    machine = _machine()
    stages, p = _stages(family_idx, p, empty_at)
    truth = machine.comm_truth(machine.placement(p))
    payload = _payload(payload_kind, len(stages), p)
    runs = sum(rows)
    entry_rng = np.random.default_rng(seeds[0])
    entry = {
        "none": None,
        "shared": entry_rng.uniform(0, 1e-4, p),
        "per-row": entry_rng.uniform(0, 1e-4, (runs, p)),
    }[entry_kind]

    def generators():
        if clean:
            return [None] * len(rows)
        return [
            np.random.default_rng(seeds[g % 4] + g) for g in range(len(rows))
        ]

    grouped_rng = None if clean else list(zip(generators(), rows))
    grouped = simulate_stages_batch(
        truth, stages, runs=runs, payload_bytes=payload, rng=grouped_rng,
        noise=machine.noise, entry_times=entry,
    )
    separate, start = [], 0
    for gen, n in zip(generators(), rows):
        part = entry
        if entry_kind == "per-row":
            part = entry[start:start + n]
        separate.append(simulate_stages_batch(
            truth, stages, runs=n, payload_bytes=payload, rng=gen,
            noise=machine.noise, entry_times=part,
        ))
        start += n
    assert grouped.shape == (runs, p)
    assert grouped.tobytes() == np.concatenate(separate).tobytes()


def test_single_generator_is_the_one_group_case():
    machine = _machine()
    stages = dissemination_barrier(12).stages
    truth = machine.comm_truth(machine.placement(12))
    one = simulate_stages_batch(
        truth, stages, runs=6, rng=np.random.default_rng(5),
        noise=machine.noise,
    )
    group = simulate_stages_batch(
        truth, stages, runs=6, rng=[(np.random.default_rng(5), 6)],
        noise=machine.noise,
    )
    assert one.tobytes() == group.tobytes()


@pytest.mark.parametrize("rows, match", [
    ((2, 2), "4 rows, but runs is 5"),
    ((5, 0), "rows >= 1"),
])
def test_groups_must_cover_runs(rows, match):
    machine = _machine()
    truth = machine.comm_truth(machine.placement(4))
    groups = [(np.random.default_rng(g), n) for g, n in enumerate(rows)]
    with pytest.raises(ValueError, match=match):
        simulate_stages_batch(
            truth, tree_barrier(4).stages, runs=5, rng=groups,
            noise=machine.noise,
        )


@given(
    family_idx=st.integers(0, len(FAMILIES) - 1),
    p=st.integers(2, 16),
    rows=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    picks=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    seed=st.integers(0, 2**31),
    empty_at=st.one_of(st.none(), st.integers(0, 8)),
    noise=st.sampled_from(sorted(NOISES)),
)
@settings(max_examples=40, deadline=None)
def test_shared_generator_groups_equal_successive_calls(
    family_idx, p, rows, picks, seed, empty_at, noise
):
    """Groups on one generator are that generator's successive calls,
    under every noise model."""
    machine = _machine()
    stages, p = _stages(family_idx, p, empty_at)
    truth = machine.comm_truth(machine.placement(p))
    payload = _payload("scalar", len(stages), p)

    def pool():
        return [np.random.default_rng(seed), np.random.default_rng(seed + 1)]

    gens = pool()
    grouped = simulate_stages_batch(
        truth, stages, runs=sum(rows), payload_bytes=payload,
        rng=[(gens[pick], n) for pick, n in zip(picks, rows)],
        noise=NOISES[noise],
    )
    gens = pool()
    separate = [
        simulate_stages_batch(
            truth, stages, runs=n, payload_bytes=payload, rng=gens[pick],
            noise=NOISES[noise],
        )
        for pick, n in zip(picks, rows)
    ]
    assert grouped.tobytes() == np.concatenate(separate).tobytes()


@given(
    family_idx=st.integers(0, len(FAMILIES) - 1),
    p=st.integers(2, 16),
    rows=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    sizes=st.lists(
        st.sampled_from([0.0, 8.0, 1000.0, 65536.0]), min_size=5, max_size=5
    ),
    at=st.integers(0, 8),
    seed=st.integers(0, 2**31),
    clean=st.booleans(),
    noise=st.sampled_from(sorted(NOISES)),
)
@settings(max_examples=40, deadline=None)
def test_per_row_payload_equals_scalar_payload_calls(
    family_idx, p, rows, sizes, at, seed, clean, noise
):
    """Row ``r`` of a ``(runs,)`` payload entry moves the bytes of a call
    whose entry is the scalar ``payload[r]``: the per-row transit bases
    are applied once over all rows, under every noise model."""
    machine = _machine()
    stages, p = _stages(family_idx, p, None)
    truth = machine.comm_truth(machine.placement(p))
    at %= len(stages)
    sizes = sizes[:len(rows)]

    def payload(entry):
        return [entry if s == at else 512.0 for s in range(len(stages))]

    gen = None if clean else np.random.default_rng(seed)
    grouped = simulate_stages_batch(
        truth, stages, runs=sum(rows),
        payload_bytes=payload(np.repeat(sizes, rows)),
        rng=None if clean else [(gen, n) for n in rows],
        noise=NOISES[noise],
    )
    gen = None if clean else np.random.default_rng(seed)
    separate = [
        simulate_stages_batch(
            truth, stages, runs=n, payload_bytes=payload(size), rng=gen,
            noise=NOISES[noise],
        )
        for size, n in zip(sizes, rows)
    ]
    assert grouped.tobytes() == np.concatenate(separate).tobytes()


# --------------------------------------------------------------- noise apply

def _kernel_before_split(model, rng, base, shape):
    """The noise kernel as one function, before its draw/apply split."""
    out = base * rng.lognormal(mean=0.0, sigma=model.jitter_sigma, size=shape)
    if model.outlier_prob > 0.0:
        hits = rng.random(shape) < model.outlier_prob
        if hits.any():
            spikes = rng.uniform(1.0, max(1.0, model.outlier_scale), size=shape)
            out = out + np.where(hits, spikes * base, 0.0)
    return np.maximum(out, model.floor)


def _base(kind: str, rows: int, width: int, seed: int):
    values = np.random.default_rng(seed).uniform(0.0, 1e-5, (rows, width))
    values[:, ::3] = 0.0  # zero durations stay exact too
    return {"scalar": 2e-6, "vector": values[0], "matrix": values}[kind]


@given(
    noise=st.sampled_from(sorted(NOISES)),
    rows=st.integers(1, 6),
    width=st.integers(1, 9),
    base_kind=st.sampled_from(["scalar", "vector", "matrix"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_apply_of_draw_is_the_kernel_before_the_split(
    noise, rows, width, base_kind, seed
):
    model = NOISES[noise]
    base = _base(base_kind, rows, width, seed)
    a = _kernel_before_split(model, np.random.default_rng(seed), base,
                             (rows, width))
    gen = np.random.default_rng(seed)
    b = model.apply(base, *model.draw(gen, (rows, width)))
    c = model.perturb(np.random.default_rng(seed), base, (rows, width))
    assert a.tobytes() == b.tobytes() == c.tobytes()
    # The halves consume the stream exactly as the kernel did.
    ref = np.random.default_rng(seed)
    _kernel_before_split(model, ref, base, (rows, width))
    assert gen.bit_generator.state == ref.bit_generator.state


@given(
    noise=st.sampled_from(sorted(NOISES)),
    rows=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    picks=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    width=st.integers(1, 9),
    base_kind=st.sampled_from(["scalar", "vector", "matrix"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_stacked_draws_applied_once_equal_separate_kernels(
    noise, rows, picks, width, base_kind, seed
):
    """Draws stacked row-wise from several calls, some on one shared
    generator, some with spikes and some without, applied once: each
    row is what its own kernel call gives."""
    model = NOISES[noise]
    runs = sum(rows)
    base = _base(base_kind, runs, width, seed)

    def gens():
        return [np.random.default_rng(seed), np.random.default_rng(seed + 1)]

    pool, separate, start = gens(), [], 0
    for pick, n in zip(picks, rows):
        own = base[start:start + n] if base_kind == "matrix" else base
        separate.append(_kernel_before_split(model, pool[pick], own, (n, width)))
        start += n
    pool, draws = gens(), []
    for pick, n in zip(picks, rows):
        draws.append(model.draw(pool[pick], (n, width)))
    factors = np.concatenate([f for f, _, _ in draws])
    hits = spikes = None
    if model.outlier_prob > 0.0:
        hits = np.concatenate([h for _, h, _ in draws])
        if any(s is not None for _, _, s in draws):
            spikes = np.concatenate([
                np.zeros((len(f), width)) if s is None else s
                for f, _, s in draws
            ])
    stacked = model.apply(base, factors, hits, spikes)
    assert stacked.tobytes() == np.concatenate(separate).tobytes()


@pytest.mark.parametrize("groups", [1, 2, 7])
def test_one_apply_per_stage_and_kind(groups, monkeypatch):
    """However many row groups a call has, each non-empty stage's five
    noise kinds are applied once, over all rows."""
    machine = _machine()
    stages = list(dissemination_barrier(12).stages)
    stages.insert(1, np.zeros((12, 12), bool))
    truth = machine.comm_truth(machine.placement(12))
    calls = []
    apply = NoiseModel.apply

    def counted(self, base, *raw):
        calls.append(raw[0].shape)
        return apply(self, base, *raw)

    monkeypatch.setattr(NoiseModel, "apply", counted)
    simulate_stages_batch(
        truth, stages, runs=2 * groups,
        rng=[(np.random.default_rng(g), 2) for g in range(groups)],
        noise=NoiseModel(outlier_prob=0.3),
    )
    assert len(calls) == 5 * (len(stages) - 1)
    assert {shape[0] for shape in calls} == {2 * groups}
