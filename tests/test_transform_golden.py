"""Every float of the Mehler-Fock transform layer on a fixed grid, against a
stored copy.

Each record is one call, written as one line of
tests/data/transform_golden.txt:

    forward <profile> rho=<rho> tol=<abs_tol> -> <value> <err_est>
    conical_p rho=<rho> r=<r> -> <value>
    conical_p1 rho=<rho> r=<r> -> <value>
    inverse r=<r> s=<s> tol=<abs_tol> -> <value> <err_est>
    h2_spectral t=<t> tol=<abs_tol> generator=<bool> -> <rows...> <err_est>
    ... -> raises <exception type>

forward is _forward_with_error on a named profile; the conical records
take (rho, r) on all three branches of the evaluator: the series near the
origin, the e^{-2r} series from r = 0.0768 on (rho > 0) and the integral
between them and at rho = 0, out to r = 711, where sinh(r) overflows;
inverse is _inverse_with_error of the transform workload's heat data
lam e^{-lam s}, with its decay hint (rate s/2, bound 2/s); h2_spectral
gives every row of the spectral oracle at the distances DISTANCES, row by
row.  The last records are calls refused before they build a partition:
a forward transform whose hint or rho would seed more panels than the
quadrature allows, and inverses at an infinite radius or rate.  Floats
compare with ==.  A
change that is meant to move a value regenerates the file with
``PYTHONPATH=src python tests/test_transform_golden.py`` and names the
changed records in its description, as the same command
with ``--report`` lists them.
"""

import math
from pathlib import Path

import numpy as np
from golden import main, moved, read

from heatforms import (DecayHint, HeatformsError, ToleranceBudget, conical_p,
                       conical_p1)
from heatforms.hyperbolic import _h2_spectral
from heatforms.specfun import RadialProfile, _forward_with_error, _inverse_with_error
from heatforms.verify import PROFILES

GOLDEN = Path(__file__).parent / "data" / "transform_golden.txt"

TOLS = (1e-6, 1e-8)
FORWARD_RHOS = (0.0, 0.5, 2.0, 6.0)
# series branch at r = 0.1 and 0.4 (rho small enough), the e^{-2r} series
# beyond for rho > 0, the integral at rho = 0 and between the two series
# for (40.0, 0.05)
CONICAL = ((0.5, 0.1), (3.0, 0.1), (0.0, 0.4), (5.0, 0.3), (0.5, 1.5), (5.0, 1.5),
           (2.0, 4.0), (20.0, 3.0), (8.0, 0.5), (0.5, 3.0), (0.0, 711.0),
           (30.0, 711.0), (40.0, 0.05))
INVERSE_RADII = (0.3, 1.5, 3.0)
HEAT_TIMES = (0.3, 1.0)
DISTANCES = (0.1, 1.0, 2.5)
SPECTRAL = ((0.1, 1e-6), (0.1, 1e-9), (1.0, 1e-6), (1.0, 1e-9))
# panels of width 1e-150 on the forward cut would number 2e150
STEEP = RadialProfile(fn=lambda r: math.exp(-1e300 * r * r),
                      decay=DecayHint("gaussian", rate=1e300, bound=1.0), name="steep")


def _heat_data(s: float):
    def fhat(rho):
        lam = 0.25 + rho * rho
        return lam * math.exp(-lam * s)
    return fhat


def _cases():
    """(key, thunk) of every record, in file order; a thunk returns floats."""
    out = []
    for name in PROFILES:
        for rho in FORWARD_RHOS:
            for tol in TOLS:
                out.append((f"forward {name} rho={rho!r} tol={tol!r}",
                            lambda n=name, rho=rho, tol=tol: _forward_with_error(
                                PROFILES[n], rho, ToleranceBudget(abs_tol=tol))))
    for fn in (conical_p, conical_p1):
        for rho, r in CONICAL:
            out.append((f"{fn.__name__} rho={rho!r} r={r!r}",
                        lambda fn=fn, rho=rho, r=r: [fn(rho, r)]))
    for r in INVERSE_RADII:
        for s in HEAT_TIMES:
            for tol in TOLS:
                out.append((f"inverse r={r!r} s={s!r} tol={tol!r}",
                            lambda r=r, s=s, tol=tol: _inverse_with_error(
                                _heat_data(s), r, ToleranceBudget(abs_tol=tol),
                                gaussian_rate=0.5 * s, bound=2.0 / s)[:2]))
    for t, tol in SPECTRAL:
        for generator in (False, True):
            def spectral(t=t, tol=tol, generator=generator):
                rows, err, _, _ = _h2_spectral(np.array(DISTANCES), t,
                                               ToleranceBudget(abs_tol=tol), generator)
                return [*np.ravel(rows), err]
            out.append((f"h2_spectral t={t!r} tol={tol!r} generator={generator}",
                        spectral))
    budget = ToleranceBudget(abs_tol=1e-6)
    out += [("forward steep rho=1.0 tol=1e-06",
             lambda: _forward_with_error(STEEP, 1.0, budget)),
            ("forward gaussian rho=100000.0 tol=1e-06",
             lambda: _forward_with_error(PROFILES["gaussian"], 1e5, budget)),
            ("inverse r=inf s=1.0 tol=1e-06",
             lambda: _inverse_with_error(_heat_data(1.0), math.inf, budget,
                                         gaussian_rate=0.5, bound=2.0)[:2]),
            ("inverse r=1.0 s=1.0 rate=inf tol=1e-06",
             lambda: _inverse_with_error(_heat_data(1.0), 1.0, budget,
                                         gaussian_rate=math.inf, bound=2.0)[:2])]
    return out


def record(key: str, thunk) -> str:
    """One line of the golden file, without its newline."""
    try:
        text = " ".join(repr(float(v)) for v in thunk())
    except HeatformsError as exc:
        text = f"raises {type(exc).__name__}"
    return f"{key} -> {text}"


def test_golden_file_lists_exactly_these_records():
    assert list(read(GOLDEN)) == [key for key, _ in _cases()]


def test_transform_values_keep_every_float():
    assert moved(GOLDEN, [record(key, thunk) for key, thunk in _cases()]) == []


if __name__ == "__main__":
    main(GOLDEN, [record(key, thunk) for key, thunk in _cases()])
