"""Discrete-event message-passing engine for stage-structured patterns.

The replication-batched engine lives in :mod:`repro.simmpi.engine`; the
original scalar implementation is preserved as its behavioural oracle in
:mod:`repro.simmpi.reference` (clean-path bit-identity is tested).
"""

from repro.simmpi.engine import (
    StageEventTrace,
    simulate_stages,
    simulate_stages_batch,
    stage_payload_matrix,
)

__all__ = [
    "simulate_stages",
    "simulate_stages_batch",
    "stage_payload_matrix",
    "StageEventTrace",
]
