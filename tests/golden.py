"""Reading, comparing and writing the golden files under tests/data.

A golden file holds one record a line, ``<key> -> <tokens>``: floats
written with repr, an exception as ``raises <type>``, or other text such
as a point hash.  A record matches when it has as many tokens and each
pair is equal, floats under == (so a zero may change sign) and any other
token as text.  Each golden test builds its records, asks ``moved`` for
those that differ from the file, and regenerates the file with ``write``
when run as a script (``main``); with ``--report`` the script instead
prints ``report``: each moved record's key and how far its floats moved.
"""

import sys
from pathlib import Path


def read(path: Path) -> dict:
    """The records of a golden file, key -> the text after " -> "."""
    return dict(line.split(" -> ", 1) for line in path.read_text().splitlines())


def _same_token(u: str, v: str) -> bool:
    try:
        return float(u) == float(v)
    except ValueError:  # "raises", an exception type or a point hash
        return u == v


def same(got: str, want: str) -> bool:
    """Equal records: the same tokens, floats equal under ==."""
    a, b = got.split(), want.split()
    return len(a) == len(b) and all(map(_same_token, a, b))


def moved(path: Path, lines) -> list:
    """The lines whose record differs from the golden file's."""
    golden = read(path)
    return [line for line in lines
            if not same(line.split(" -> ", 1)[1], golden[line.split(" -> ", 1)[0]])]


def largest_change(got: str, want: str):
    """The largest |new - old| over the float tokens of two records, or None
    where their tokens do not pair up as floats."""
    a, b = got.split(), want.split()
    try:
        if len(a) == len(b):
            return max((abs(float(u) - float(v)) for u, v in zip(a, b)
                        if u != v), default=0.0)
    except ValueError:  # a token that is no float differs
        pass
    return None


def report(path: Path, lines) -> list:
    """One line per moved record: its key and the largest |new - old| over
    its float tokens, or its old and new text where they do not pair up."""
    golden = read(path)
    out = []
    for line in moved(path, lines):
        key, got = line.split(" -> ", 1)
        change = largest_change(got, golden[key])
        out.append(f"{key}: {golden[key]} => {got}" if change is None
                   else f"{key}: {change!r}")
    return out


def main(path: Path, lines) -> None:
    """A golden script's entry: write the file, or print the report of the
    moved records with --report."""
    if "--report" in sys.argv[1:]:
        print("\n".join(report(path, lines)))
    else:
        write(path, lines)


def write(path: Path, lines) -> None:
    """Write the golden file, one line a record."""
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines))
