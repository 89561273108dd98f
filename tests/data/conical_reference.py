"""Print the frozen conical values that tests/test_specfun.py compares the
e^{-2r} branch and the large-radius integral against, and the frozen ln c
table its connection coefficient is held to.

Each conical line is (rho, r, P, P1) with P = P_{-1/2+i rho}(cosh r) and P1
its r-derivative, the order-one Legendre function of the same degree
(mpmath legenp, type 3), evaluated at 40 digits and rounded to a double;
the NEAR lines print P and P1 to 30 digits.
Each ln c line is (rho, ln|c|, arg c) with c = Gamma(i rho) / (sqrt(pi)
Gamma(1/2 + i rho)), from mpmath's loggamma at 40 digits, printed to 30.
Needs mpmath (1.3.0 was used), which the package does not depend on:

    python tests/data/conical_reference.py
"""

import mpmath as mp

mp.mp.dps = 40

# the e^{-2r} branch on both sides of rho_min = 1e-3, from r = 0.4 on
FAR_RHOS = ("1e-3", "0.01", "0.5", "2", "8", "15", "40")
FAR_RADII = ("0.4", "0.5", "1", "3", "8", "30")
# the e^{-2r} branch between its first radius 0.0768 and ln2 / 2, where |c|
# (at small rho) and 1 / (1 - x) (up to 7) are large
NEAR_RHOS = ("1e-3", "0.01", "0.5", "3", "14")
NEAR_RADII = ("0.08", "0.12", "0.2", "0.3")
# radii where sinh(r) overflows a double
HUGE_RHOS = ("0", "1", "30")
HUGE_RADII = ("711", "1000", "1400")
# ln c of the e^{-2r} branch, from rho_min to far beyond the rho it serves
LOG_C_RHOS = ("1e-3", "0.01", "0.3", "1", "3", "10", "50", "300", "5000", "1e5")


def conical_mp(rho: str, r: str):
    nu = mp.mpf(-0.5) + 1j * mp.mpf(rho)
    z = mp.cosh(mp.mpf(r))
    return (mp.re(mp.legenp(nu, 0, z, type=3)), mp.re(mp.legenp(nu, 1, z, type=3)))


def conical(rho: str, r: str):
    return tuple(float(v) for v in conical_mp(rho, r))


for name, rhos, radii in (("FAR", FAR_RHOS, FAR_RADII),
                          ("HUGE", HUGE_RHOS, HUGE_RADII)):
    print(f"{name}_CASES = [")
    for r in radii:
        for rho in rhos:
            p, p1 = conical(rho, r)
            print(f"    ({float(rho)!r}, {float(r)!r}, {p!r}, {p1!r}),")
    print("]")

print("NEAR_CASES = [")
for r in NEAR_RADII:
    for rho in NEAR_RHOS:
        p, p1 = conical_mp(rho, r)
        print(f'    ({float(rho)!r}, {float(r)!r}, "{mp.nstr(p, 30)}", "{mp.nstr(p1, 30)}"),')
print("]")

print("LOG_C_CASES = [")
for rho in LOG_C_RHOS:
    x = mp.mpf(rho)
    log_c = mp.loggamma(1j * x) - mp.loggamma(0.5 + 1j * x) - mp.log(mp.pi) / 2
    print(f'    ({float(rho)!r}, "{mp.nstr(mp.re(log_c), 30)}", "{mp.nstr(mp.im(log_c), 30)}"),')
print("]")
