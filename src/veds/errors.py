"""Exception types shared across the package.

Each class carries the process exit code the CLI maps it to.
"""


class VedsError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(VedsError):
    """Malformed user input: files, permutations, vertex names, index ranges."""

    exit_code = 2


class ContractError(VedsError):
    """An operation was invoked outside its documented contract."""

    exit_code = 1


class DomainError(VedsError):
    """The requested value does not exist (for example, no cover exists)."""

    exit_code = 1


class CapacityError(VedsError):
    """The instance exceeds an enforced desk-scale capacity limit."""

    exit_code = 3


class GenerationError(VedsError):
    """Random instance generation exhausted its retry budget, or was refused
    before any draw because its retries could never succeed: a connected
    request whose mean interval length is at most 1 over two or more Y
    positions, reported with the message the exhausted budget gives."""

    exit_code = 1
