"""The plan-based Eq. 5.4 model against the per-process loop it replaced.

The contract (``repro.barriers.cost_model`` docstring): for finite
parameters, :func:`stage_costs` and :func:`predict_barrier_timeline` are
*bit-identical* to :mod:`repro.barriers.reference` for every pattern
family, with the posted-receive condition on or off, and for every
payload form; a plan served from the cache is its cold build; the cache
is bounded, read-only and safe under threads.
"""

import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.barriers import cost_model, reference
from repro.barriers.cost_model import (
    PLAN_CACHE_SIZE,
    CommParameters,
    predict_barrier_cost,
    predict_barrier_timeline,
    stage_costs,
    stage_terms,
)
from repro.barriers.patterns import from_stages, linear_barrier, tree_barrier
from repro.explore.experiments import PATTERN_FAMILIES

#: Largest P drawn per family: ``sequential`` has 2(P - 1) stages and
#: ``all-to-all`` P(P - 1) messages, so both stay small.
MAX_P = {"sequential": 12, "all-to-all": 12, "random": 10}


def make_pattern(family: str, p: int, rng=None):
    if family == "random":
        return random_pattern(rng, p)
    if family == "pairwise":
        p = 1 << (p.bit_length() - 1)  # the family needs a power of two
    return PATTERN_FAMILIES[family](p)


def random_pattern(rng, p: int):
    """Up to six stages of random signals: senders with several
    destinations that idle and are signalled back, which no family
    combines, and empty stages."""
    num_stages = int(rng.integers(1, 7))
    density = rng.uniform(0, 0.6, (num_stages, 1, 1))
    stages = rng.random((num_stages, p, p)) < density
    stages[:, np.arange(p), np.arange(p)] = False
    return from_stages("random", stages)


def random_params(rng, p: int, coarse: bool, with_bandwidth: bool):
    """Parameters with negative off-diagonal overheads, as a comm-bench
    regression can produce.  ``coarse`` draws from a small grid, so
    overhead ties and exact zeros are common; otherwise magnitudes span
    nine decades, so summation order shows in the last bits.  Every value
    is finite and no zero is negative (the sign of a zero maximum is
    outside the contract)."""
    def draw(low):
        if coarse:
            return rng.integers(low, 9, (p, p)) * 0.25
        return rng.uniform(low, 1.0, (p, p)) * 10.0 ** rng.uniform(-6, 3, (p, p))

    overhead = draw(-4) + 0.0
    np.fill_diagonal(overhead, np.abs(overhead.diagonal()))
    latency = draw(0) + 0.0
    inv_bandwidth = draw(0) + 0.0 if with_bandwidth else None
    return CommParameters(overhead, latency, inv_bandwidth)


def random_payload(rng, kind: str, pattern):
    p, stages = pattern.nprocs, pattern.num_stages
    if kind == "none":
        return None
    if kind == "scalar":
        return float(rng.integers(0, 3)) * 512.0
    if kind == "per-stage-scalars":
        return [float(rng.integers(0, 3)) * 64.0 for _ in range(stages)]
    matrices = []
    for _ in range(stages):
        m = rng.integers(0, 3, (p, p)) * rng.uniform(1.0, 4096.0, (p, p))
        m[rng.random(p) < 0.5] = 0.0  # whole sender rows without bytes
        matrices.append(m)
    return matrices


@st.composite
def cases(draw):
    family = draw(st.sampled_from(sorted(PATTERN_FAMILIES) + ["random"]))
    p = draw(st.integers(1, MAX_P.get(family, 24)))
    with_bandwidth = draw(st.booleans())
    payload = draw(st.sampled_from(
        ["none", "scalar", "per-stage-scalars", "per-stage-matrices"]
    ))
    return (
        family, p, draw(st.booleans()), draw(st.booleans()), with_bandwidth,
        payload, draw(st.integers(0, 2**32 - 1)),
    )


class TestBitIdentity:
    @given(case=cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_reference_bytes(self, case):
        family, p, posted, coarse, with_bandwidth, payload_kind, seed = case
        rng = np.random.default_rng(seed)
        pattern = make_pattern(family, p, rng)
        params = random_params(rng, pattern.nprocs, coarse, with_bandwidth)
        payload = random_payload(rng, payload_kind, pattern)
        if not with_bandwidth and payload is not None:
            # Unpriceable bytes raise; the oracle sees them as zero.
            payload = 0.0 if payload_kind == "scalar" else [
                np.zeros((pattern.nprocs,) * 2) for _ in pattern.stages
            ]
        kwargs = dict(payload_bytes=payload, use_posted_condition=posted)

        got = stage_costs(pattern, params, **kwargs)
        want = reference.stage_costs(pattern, params, **kwargs)
        assert len(got) == len(want)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        got_t = predict_barrier_timeline(pattern, params, **kwargs)
        want_t = reference.predict_barrier_timeline(pattern, params, **kwargs)
        assert got_t.tobytes() == want_t.tobytes()

    @pytest.mark.parametrize("family", sorted(PATTERN_FAMILIES) + ["random"])
    def test_posted_messages_match_reference(self, family):
        rng = np.random.default_rng(4)
        for p in [*range(1, 21)] * (10 if family == "random" else 1):
            pattern = make_pattern(family, p, rng)
            plan = cost_model._build_plan(pattern.stages, pattern.nprocs)
            stage = np.searchsorted(plan.bounds, np.arange(plan.src.size), "right") - 1
            src, dst = plan.src, plan.dst
            if plan.order is not None:
                src, dst, stage = src[plan.order], dst[plan.order], stage[plan.order]
            got = [set() for _ in pattern.stages]
            for k in plan.posted_at:
                got[stage[k]].add((int(src[k]), int(dst[k])))
            assert got == reference.posted_receive_pairs(pattern)

    def test_bytes_free_rows_ignore_bandwidth(self):
        """A sender whose messages carry no bytes adds exactly 0.0, even
        over links of unknown (inf) or negative inverse bandwidth."""
        rng = np.random.default_rng(8)
        for family in ("linear", "tree", "kary-dissemination"):
            pattern = make_pattern(family, 9)
            params = random_params(rng, 9, False, True)
            inv_bandwidth = params.inv_bandwidth.copy()
            inv_bandwidth[::2] = np.inf
            inv_bandwidth[1::2] *= -1.0
            params = CommParameters(params.overhead, params.latency, inv_bandwidth)
            payload = random_payload(rng, "per-stage-matrices", pattern)
            for matrix in payload:
                matrix[::2] = 0.0  # the inf rows carry nothing
            got = stage_costs(pattern, params, payload)
            want = reference.stage_costs(pattern, params, payload)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert np.isfinite(np.array(got)[:, ::2]).all()

    def test_invocation_floor_keeps_the_loop_tie_rule(self):
        """A sender's ``max(total, O_ii)`` keeps ``total`` on a tie, as
        Python's ``max`` does: +0.0 over a -0.0 floor."""
        p = 4
        overhead = np.zeros((p, p))
        np.fill_diagonal(overhead, -0.0)
        params = CommParameters(overhead, np.zeros((p, p)))
        for family in ("linear", "dissemination"):
            pattern = make_pattern(family, p)
            got = np.array(stage_costs(pattern, params))
            want = np.array(reference.stage_costs(pattern, params))
            assert got.tobytes() == want.tobytes()


def _arrays(plan):
    return {
        f.name: getattr(plan, f.name)
        for f in fields(plan)
        if isinstance(getattr(plan, f.name), np.ndarray)
    }


class TestPlanCache:
    def test_cached_plan_is_cold_build(self):
        rng = np.random.default_rng(3)
        for family in sorted(PATTERN_FAMILIES):
            pattern = make_pattern(family, 10)
            params = random_params(rng, pattern.nprocs, False, True)
            payload = random_payload(rng, "per-stage-matrices", pattern)
            cost_model._plans.clear()
            cold = predict_barrier_timeline(pattern, params, payload)
            cold_costs = stage_costs(pattern, params, payload)
            served = cost_model._plan(pattern)
            assert served is cost_model._plan(pattern)
            built = cost_model._build_plan(pattern.stages, pattern.nprocs)
            assert served.bounds == built.bounds and served.blocks == built.blocks
            for name, value in _arrays(built).items():
                assert getattr(served, name).tobytes() == value.tobytes(), name
            warm = predict_barrier_timeline(pattern, params, payload)
            assert warm.tobytes() == cold.tobytes()
            warm_costs = stage_costs(pattern, params, payload)
            assert np.array(warm_costs).tobytes() == np.array(cold_costs).tobytes()

    def test_size_never_exceeds_bound(self):
        cost_model._plans.clear()
        for p in range(2, PLAN_CACHE_SIZE + 12):
            cost_model._plan(linear_barrier(p))
            assert len(cost_model._plans) <= PLAN_CACHE_SIZE
        assert len(cost_model._plans) == PLAN_CACHE_SIZE
        # Least recently used goes first: P = 2..11 are gone.
        assert min(key[0] for key in cost_model._plans) == 12

    def test_plan_arrays_are_read_only(self):
        plan = cost_model._plan(tree_barrier(12))
        for name, value in _arrays(plan).items():
            assert not value.flags.writeable, name

    def test_key_is_content_not_layout(self):
        """A Fortran-ordered copy of a stage is the same pattern."""
        stages = tree_barrier(9).stages
        fortran = from_stages("t", [np.asfortranarray(s) for s in stages])
        assert cost_model._plan(fortran) is cost_model._plan(tree_barrier(9))

    def test_equal_bytes_different_size_do_not_collide(self):
        """Four 2 x 2 stages and one 4 x 4 stage with the same 16 bytes."""
        small = [[[0, 1], [1, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]],
                 [[0, 1], [1, 0]]]
        large = np.array(small, dtype=bool).reshape(1, 4, 4)
        assert cost_model._plan(from_stages("a", small)).nprocs == 2
        assert cost_model._plan(from_stages("b", large)).nprocs == 4

    def test_concurrent_callers_agree(self):
        """More threads than cores, a short switch interval and more
        patterns than the bound, so lookups, builds and evictions
        interleave: every result stays the oracle's and the bound holds."""
        patterns = [make_pattern(f, 12) for f in sorted(PATTERN_FAMILIES)]
        patterns += [linear_barrier(p) for p in range(2, PLAN_CACHE_SIZE + 8)]
        rng = np.random.default_rng(5)
        params = [random_params(rng, pt.nprocs, False, False) for pt in patterns]
        want = [reference.predict_barrier_timeline(*a) for a in zip(patterns, params)]
        cost_model._plans.clear()
        errors = []

        def work(offset):
            try:
                for k in range(2 * len(patterns)):
                    i = (k * 7 + offset) % len(patterns)
                    got = predict_barrier_timeline(patterns[i], params[i])
                    assert got.tobytes() == want[i].tobytes()
                    assert len(cost_model._plans) <= PLAN_CACHE_SIZE
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestTerms:
    def test_linear_release_terms(self):
        """The master's release: 2L summed over P - 1 destinations, the
        max of its overheads, the payload priced per destination."""
        p = 5
        lat = np.full((p, p), 1.0)
        ov = np.full((p, p), 0.1)
        np.fill_diagonal(ov, 0.01)
        params = CommParameters(ov, lat, np.full((p, p), 0.5))
        terms = stage_terms(linear_barrier(p), params, payload_bytes=[0.0, 2.0])
        assert terms.latency[1, 0] == pytest.approx(2.0 * (p - 1))
        assert terms.overhead[1, 0] == 0.1
        assert terms.payload[1, 0] == pytest.approx(1.0 * (p - 1))
        assert (terms.payload[0] == 0.0).all()  # the arrivals carry no bytes
        assert terms.floor[1].tolist() == [0.01] * p
        assert terms.cost[1, 0] == pytest.approx(2.0 * 4 + 4 * 1.0 + 0.1)
        # Pure receivers pay only their invocation floor.
        assert terms.cost[1, 1:].tolist() == [0.01] * (p - 1)
        assert terms.latency[1, 1:].tolist() == [0.0] * (p - 1)

    def test_cost_is_the_terms_combined(self):
        rng = np.random.default_rng(11)
        pattern = tree_barrier(13, arity=3)
        params = random_params(rng, 13, False, True)
        payload = random_payload(rng, "per-stage-matrices", pattern)
        terms = stage_terms(pattern, params, payload)
        senders = np.array([s.any(axis=1) for s in pattern.stages])
        total = (terms.latency + terms.payload) + terms.overhead
        expect = np.where(
            senders, np.where(terms.floor > total, terms.floor, total),
            terms.floor,
        )
        assert expect.tobytes() == terms.cost.tobytes()
        assert predict_barrier_cost(pattern, params, payload) > 0.0
