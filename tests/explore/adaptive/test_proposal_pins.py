"""Pinned proposal sequences, one per strategy and feedback shape.

The proposal sequence is contractual: it is a pure function of
``(space, seed, options, observations fed back)``, and changing how a
sampler computes its choices must not change the choices.  Each case
drives a sampler through a fixed schedule and pins the sha256 of its
joined proposal keys, so any drift in selection — tie-breaking, the
surrogate's neighbour order, the hill-climb's neighbourhood — fails here
with no tolerance.
"""

import hashlib
import math

import pytest

from repro.explore.adaptive.samplers import Observation, make_sampler
from repro.explore.space import DesignPoint, DesignSpace, canonical_json

from .conftest import bowl_space

_MODE_PENALTY = {"m0": 1.5, "m1": 1.0, "m2": 0.5, "m3": 0.0, "m4": 2.0}


def _bowl_metrics(point) -> dict:
    base = (
        (point["a"] - 13) ** 2
        + 0.5 * (point["b"] - 4) ** 2
        + _MODE_PENALTY[point["mode"]]
    )
    # A ripple breaks the bowl's exact symmetries without reordering it.
    ripple = 0.05 * math.sin(3.0 * point["a"] + 5.0 * point["b"])
    return {
        "cost": float(base + ripple),
        "weight": float(point["a"] + point["b"]) + ripple,
        "score": -float(base) + ripple,
    }


def _fidelity_space() -> DesignSpace:
    return DesignSpace.from_dict({
        "axes": {
            "a": list(range(10)),
            "b": list(range(8)),
            "mode": ["m0", "m1", "m2", "m3"],
            "runs": [1, 2, 4],
        },
    })


def _mixed_space() -> DesignSpace:
    """A categorical axis whose values 1, 1.0 and True are equal under
    ``==`` but encode apart, plus a point that omits the axis (its value
    reads as None, like the explicit None)."""
    return DesignSpace.from_dict({
        "axes": {
            "a": list(range(12)),
            "b": list(range(10)),
            "flag": [1, 1.0, True, "x", None],
        },
        "points": [{"a": 3, "b": 100}, {"a": 30, "b": 4, "flag": "y"}],
    })


_FLAG_BUMP = {
    "1": 0.3, "1.0": 0.35, "true": 0.2, '"x"': 0.7, '"y"': 0.9, "null": 1.1,
}


def _mixed_metrics(point) -> dict:
    bump = _FLAG_BUMP[canonical_json(point.get("flag"))]
    return {"cost": (point["a"] - 7) ** 2 + 0.3 * (point["b"] - 5) ** 2 + bump}


def _digest(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _drive(sampler, metrics, rounds, batch, *, pre=(), damage=False):
    """Run ``rounds`` propose/observe cycles; returns the proposal keys.

    ``pre`` is observed before the first proposal (a cache import).
    With ``damage``, feedback is interleaved with failed metrics (missing,
    None, inf, nan) and an out-of-space observation every round.
    """
    if pre:
        sampler.observe([Observation(p, metrics(p)) for p in pre])
    keys = []
    for r in range(rounds):
        picks = sampler.propose(batch)
        if not picks:
            break
        keys.extend(p.key for p in picks)
        feedback = []
        for i, p in enumerate(picks):
            m = metrics(p)
            if damage and i % 5 == 1:
                m = {}
            elif damage and i % 7 == 2:
                m = {name: None for name in m}
            elif damage and i % 9 == 3:
                m = {name: (math.inf if r % 2 else math.nan) for name in m}
            feedback.append(Observation(p, m))
        if damage:
            stray = DesignPoint({"a": 99 + r, "b": 99, "mode": "zz"})
            feedback.insert(len(feedback) // 2, Observation(stray, {
                "cost": -1e9, "weight": -1e9, "score": 1e9,
            }))
        sampler.observe(feedback)
    return keys


def _bowl():
    return bowl_space()  # 18 x 20 x 5 = 1800 points


CASES = {
    "random": lambda: _drive(
        make_sampler("random", _bowl(), seed=5, objective="cost"),
        _bowl_metrics, rounds=10, batch=16,
    ),
    "stratified": lambda: _drive(
        make_sampler("stratified", _bowl(), seed=5, objective="cost"),
        _bowl_metrics, rounds=10, batch=16,
    ),
    "halving": lambda: _drive(
        make_sampler(
            "halving", _fidelity_space(), seed=5, objective="cost",
            fidelity="runs",
        ),
        _bowl_metrics, rounds=30, batch=16,
    ),
    "surrogate": lambda: _drive(
        make_sampler("surrogate", _bowl(), seed=3, objective="cost"),
        _bowl_metrics, rounds=20, batch=16,
    ),
    "surrogate-maximize": lambda: _drive(
        make_sampler(
            "surrogate", _bowl(), seed=4, objective="score",
            maximize=("score",),
        ),
        _bowl_metrics, rounds=20, batch=12,
    ),
    "surrogate-pareto": lambda: _drive(
        make_sampler(
            "surrogate", _bowl(), seed=6, objectives=("cost", "weight"),
        ),
        _bowl_metrics, rounds=15, batch=12,
    ),
    "surrogate-cache-import": lambda: _drive(
        make_sampler("surrogate", _bowl(), seed=7, objective="cost", k=3),
        _bowl_metrics, rounds=12, batch=16, pre=_bowl().expand()[::45],
    ),
    "surrogate-damaged-feedback": lambda: _drive(
        make_sampler("surrogate", _bowl(), seed=8, objective="cost"),
        _bowl_metrics, rounds=15, batch=16, damage=True,
    ),
    "surrogate-pareto-damaged-feedback": lambda: _drive(
        make_sampler(
            "surrogate", _bowl(), seed=9, objectives=("cost", "score"),
            maximize=("score",),
        ),
        _bowl_metrics, rounds=12, batch=10, damage=True,
    ),
    "surrogate-mixed-equality": lambda: _drive(
        make_sampler("surrogate", _mixed_space(), seed=2, objective="cost"),
        _mixed_metrics, rounds=20, batch=8,
    ),
}

#: Recorded before the incremental surrogate sampler replaced the
#: per-batch refit; they must not move.
PINNED = {
    "random": (
        "6282a3eb971b755648934862c364a3ee"
        "fa443141e41176f62faba623302939e8"
    ),
    "stratified": (
        "ad9a21942c19b1d52602671d0ced14b9"
        "e8286909eb76d67a817c2c8eecd259ce"
    ),
    "halving": (
        "eaa965c485c979d96cbf16935913d86b"
        "bf87ee82d450e2dbec00f20327a50834"
    ),
    "surrogate": (
        "687cee4970841c0673100316e3281c11"
        "0d2fc641592415b8ebbfa4197dc17e08"
    ),
    "surrogate-maximize": (
        "5266262f0fcc40f429a1b17602583201"
        "9d90dece993841a7328915d8fa58ad30"
    ),
    "surrogate-pareto": (
        "5075a7f2da3514a2352d7714cce8950f"
        "503c6951ac0d7040d758b3f7dd0d97bc"
    ),
    "surrogate-cache-import": (
        "3f899e54181019b6a9997d75f9795561"
        "fc0cad80a7f294b80b649408f16807a2"
    ),
    "surrogate-damaged-feedback": (
        "9dba5770111b2a9080033e4bbd80d286"
        "a21ba3976c739a4e8f5a069ec120900c"
    ),
    "surrogate-pareto-damaged-feedback": (
        "6bb8efdc5dc02e847d81515afd359077"
        "1f6c8f0140e139571f1bf255ef8a00dc"
    ),
    "surrogate-mixed-equality": (
        "b814b334e22d8d510eb984414de48e58"
        "243ed3d4a6a3c0646eee2b991f309cc6"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_proposal_sequence_is_pinned(case):
    keys = CASES[case]()
    assert len(set(keys)) == len(keys)
    assert _digest(keys) == PINNED[case]
