"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class AddrParseError(SimError, ValueError):
    """Malformed textual address or prefix."""


class FamilyMismatchError(SimError, ValueError):
    """Operation mixed IPv4 and IPv6 operands."""


class MalformedPacketError(SimError, ValueError):
    """Packet bytes violate the wire format."""


class TruncationError(MalformedPacketError):
    """Buffer shorter than the lengths encoded in it claim."""


class UnsupportedTypeError(MalformedPacketError):
    """Known container, unknown inner type code."""


class DecodeError(SimError, ValueError):
    """Control-plane message bytes could not be decoded."""


class DanglingPolicyError(SimError, ValueError):
    """Steering rule references a binding SID with no installed policy."""


class ValidationError(SimError, ValueError):
    """Document or scenario failed schema validation.

    ``path`` locates the offending field when known.
    """

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class ModeMismatchError(SimError, ValueError):
    """Command applies to the other control-plane mode."""


class UnknownNodeError(SimError, KeyError):
    """Referenced cluster node or router is not part of the scenario."""


class ConvergenceError(SimError, RuntimeError):
    """Control plane did not quiesce within the step budget."""
