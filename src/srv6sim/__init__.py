"""SRv6 overlay cluster simulator: SRH dataplane, vector packet
processing, an emulated routed underlay, and two interchangeable control
planes (two-step BGP with SR Policy SAFI, or ConfigMap reconciliation)."""

from .scenario import Scenario, load_scenario
from .sim import Simulation

__all__ = ["Scenario", "Simulation", "load_scenario"]

__version__ = "0.1.0"
