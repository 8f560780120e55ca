"""Discrete-event message-passing engine for stage-structured patterns.

The replication-batched engine, :func:`simulate_stages_batch`, lives in
:mod:`repro.simmpi.engine`; a single execution is row 0 of a ``runs=1``
call.  The original scalar implementation is preserved as its
behavioural oracle in :mod:`repro.simmpi.reference` (clean-path
bit-identity is tested).
"""

from repro.simmpi.engine import simulate_stages_batch, stage_payload_matrix

__all__ = [
    "simulate_stages_batch",
    "stage_payload_matrix",
]
