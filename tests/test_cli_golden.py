"""Every output byte of a fixed set of CLI commands, against a stored copy.

Each command runs in-process; its exit code, stdout and stderr are written
as one block of tests/data/cli_golden.txt:

    $ <arguments>
    exit <code>
    > <stdout line>
    ! <stderr line>

A change that is meant to alter an output regenerates the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and names the changed
lines in its description.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from heatforms.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

_PAIRS = {"plane": ("0.3,0.2", "1.1,2.0"), "sphere": ("0.7,0", "1.2,0"),
          "hyperbolic": ("0.4,0.3", "1.2,1.1")}

COMMANDS = (
    [f"eval --surface {s} --degree {d} --x {x} --y {y} --t 0.5"
     for s, (x, y) in _PAIRS.items() for d in (0, 1, 2)]
    + ["eval --surface sphere --degree 1 --x 0.5,0.2 --y 2.0,1.0 --t 0.7 --format json",
       "eval --surface hyperbolic --degree 0 --x 0.1,0 --y 0.1,0 --t 0.3 --tol 1e-10"]
    + [f"grid --surface {s} --degree {d} --x {_PAIRS[s][0]} --y1 0.2:1.4:3 "
       f"--y2 0:3:2 --t 0.5" for s in _PAIRS for d in (0, 1, 2)]
    + ["grid --surface plane --degree 0 --x 0.3,0.2 --y 1.1,2.0 --t-range 0.1:1:4",
       "grid --surface sphere --degree 0 --x 0,0 --y 0.5,0 --t-range 0.01:2:3 "
       "--format json",
       "grid --surface hyperbolic --degree 1 --x 0.4,0.3 --y1 0:0:0 --y2 0:1:2 --t 0.5"]
    + ["quotient --model torus --lattice 1,0,0.3,1.1 --x 0.2,0.5 --y 0.6,2.0 "
       f"--t 0.3 --degree {d}" for d in (0, 1)]
    + [f"quotient --model cylinder --vector 1.5,0.5 --x 0.2,0.5 --y 0.6,2.0 "
       f"--t 0.3 --degree {d}" for d in (0, 1)]
    + ["quotient --model hyperbolic-cylinder --ell 1.5 --x 0.3,0 --y 0.5,1 --t 0.5",
       "quotient --model hyperbolic-cylinder --ell 0.8 --x 0.2,1 --y 0.9,4 --t 0.2 "
       "--format json"]
    + [f"quotient --model trivial --surface {s} --x {x} --y {y} --t 0.5"
       for s, (x, y) in _PAIRS.items()]
    + ["quotient --model trivial --surface plane --degree 1 --x 0.3,0.2 --y 1.1,2.0 "
       "--t 0.5"]
    + [f"transform --direction forward --profile {p} --rho-range 0:3:4 --tol 1e-6"
       for p in ("gaussian", "cubic")]
    + [f"transform --direction inverse --profile {p} --r-range 0.5:1.5:2 --tol 1e-6"
       for p in ("gaussian", "cubic")]
    + [f"transform --direction roundtrip --profile {p} --r-range 0.5:1.5:2 --tol 1e-6"
       for p in ("gaussian", "cubic")]
    + ["grid --surface plane --x 0,0 --y1 0:1:2",
       "quotient --model torus --lattice 0.001,0,0,0.001 --x 0,0 --y 0,0 --t 20"]
)


def transcript(command: str) -> str:
    """The golden block of one command: its arguments, exit code, stdout
    lines after "> " and stderr lines after "! "."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    lines = [f"$ {command}", f"exit {code}"]
    lines += ["> " + line for line in out.getvalue().splitlines()]
    lines += ["! " + line for line in err.getvalue().splitlines()]
    return "\n".join(lines) + "\n"


def _golden_blocks() -> dict:
    blocks = GOLDEN.read_text().split("\n\n")
    return {block.split("\n", 1)[0][2:]: block.rstrip("\n") + "\n" for block in blocks}


def test_golden_file_lists_exactly_these_commands():
    assert list(_golden_blocks()) == COMMANDS


def test_commands_cover_every_exit_code_but_verification_failure():
    codes = {block.split("\n")[1] for block in _golden_blocks().values()}
    assert codes == {"exit 0", "exit 2", "exit 3"}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_keeps_every_byte(command):
    assert transcript(command) == _golden_blocks()[command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(transcript(c) for c in COMMANDS))
