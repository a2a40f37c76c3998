"""The count check every setting shares, so that each count's refusal
reads the same. `minigi.lang` does not import this module (see the import
contract in `minigi/lang/__init__.py`)."""


def check_count(name: str, value, least: int = 1) -> None:
    """ValueError unless `value` is an integer of at least `least`; a JSON
    true is no count, although Python's bool is an int."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
