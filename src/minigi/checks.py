"""The count check every setting shares, so that each count's refusal
reads the same, and the longest wait a setting may ask for. `minigi.lang`
does not import this module (see the import contract in
`minigi/lang/__init__.py`)."""

# A C int: every platform can wait this many milliseconds (the `poll` that
# `subprocess` waits in takes an int of them) and a socket this many
# seconds (a 32-bit time_t holds them).
LONGEST_WAIT = 2**31 - 1


def check_count(name: str, value, least: int = 1) -> None:
    """ValueError unless `value` is an integer of at least `least`; a JSON
    true is no count, although Python's bool is an int."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
