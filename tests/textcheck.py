"""Equality of long texts that reports the first differing line, not a diff."""


def assert_same_text(actual: str, expected: str) -> None:
    """Raise AssertionError unless the texts are equal, naming the first line
    where they differ, both versions of it and both line counts.

    pytest's diff of two multi-megabyte strings takes minutes; this reports
    a mismatch in well under a second.
    """
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                min(len(got), len(want)))
    raise AssertionError(
        f"texts differ at line {line + 1} ({len(got)} lines vs {len(want)} expected): "
        f"{got[line] if line < len(got) else '<end of text>'!r} != "
        f"{want[line] if line < len(want) else '<end of text>'!r}")
