"""A copy of a tapearm value with some fields changed."""


def replace(value, **changes):
    """A new instance of ``value``'s type, built from its fields with
    ``changes`` applied, so its ``__init__`` checks them again."""
    return type(value)(**{**value._asdict(), **changes})
