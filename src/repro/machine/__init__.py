"""Machine layer: the SimMachine facade, compute-time model, virtual clocks."""

from repro.machine.simmachine import SimMachine, CommTruth, make_machine
from repro.machine.clock import BatchClock
from repro.machine import compute

__all__ = ["SimMachine", "CommTruth", "make_machine", "BatchClock", "compute"]
