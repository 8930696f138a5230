"""Shared exception types."""


class GuardExceeded(Exception):
    """An input is larger than the instance-size guard of the operation.

    Guards keep exponential enumerations from running away.  guard=False (the
    CLI's --unsafe-no-guard) disables them all but the subset kernel's 30-vertex cap.
    """
