"""Reading, comparing and writing the golden files under tests/data.

A golden file holds one record a line, ``<key> -> <tokens>``: floats
written with repr, an exception as ``raises <type>``, or other text such
as a point hash.  A record matches when it has as many tokens and each
pair is equal, floats under == (so a zero may change sign) and any other
token as text.  Each golden test builds its records, asks ``moved`` for
those that differ from the file, and regenerates the file with ``write``
when run as a script.
"""

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


def write(path: Path, lines) -> None:
    """Write the golden file, one line a record."""
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines))
