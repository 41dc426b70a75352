"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: ConfigError -> 2, DomainError -> 2,
InternalInconsistency -> 3.  A failed mathematical check is never an
exception; it is a report entry with status "fail" (exit code 1).
"""


class ConfigError(ValueError):
    """Invalid user input: bad spec string, parameter out of range, etc."""


class DomainError(ValueError):
    """Operation outside its mathematical domain, or a search out of budget."""


class InternalInconsistency(RuntimeError):
    """A certified identity failed to re-verify; indicates a bug."""
