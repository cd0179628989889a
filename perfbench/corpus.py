"""Hand-written fields on the torus and the facts the paper fixes for them.

Every expectation here is derived by hand from the closed forms of the
families, never read back from the code under test:

* a cubic built from (K', f) with beta = gamma = 0 has cofactor K'*z and
  extactic Q*x - P*y = -f*(x^2 + y^2), so its invariant meridian planes are
  the real linear factors of f;
* its invariant parallels are the roots in [-1, 1] of the gcd of the
  z-profiles of R = K'*(-m*(x^2+y^2) + z^2 + m^2 - 1)/2, which is K' itself
  when K' = k0 + k3*z and a constant otherwise;
* a field (A*y, -A*x, 0) has cofactor 0, every parallel invariant, the real
  linear factors of A as meridian planes and the zero set of A as its
  singular set;
* the catalogued first integrals are F/(x^2+y^2)^2 for quadratic and
  Kolmogorov fields, and x^2 + y^2 and z for rotation-shaped fields.

The named fields and their singular sets, limit cycles and parallel
verdicts come from the paper's worked examples and acceptance criteria.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

BOWL = "(-a^2*(x^2+y^2) + z^2 + a^4 - 1)"

# The worked cubic of the paper (K' = 1, f = x*y), written as in the README.
WORKED_CUBIC = ("(1/4)*x*z + x*y^2", "(1/4)*y*z - x^2*y",
                "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)")
# The same field with a^2 written as 2*a, which is equal exactly when m = 4.
WORKED_CUBIC_2A = ("(1/4)*x*z + x*y^2", "(1/4)*y*z - x^2*y",
                   "(1/2)*(-2*a*(x^2+y^2) + z^2 + a^4 - 1)")

LIMIT_CYCLES = [("limit-cycle", "stable"), ("limit-cycle", "unstable"),
                ("limit-cycle", "stable"), ("limit-cycle", "unstable")]


@dataclass(frozen=True)
class Spec:
    """One field as expression strings, with its hand-derived facts."""

    name: str
    m: Fraction
    px: str
    qy: str
    rz: str
    cofactor: str                  # expected K, as an expression
    family: str
    degree: int
    meridians: int | str           # count with multiplicity, or "infinite"
    parallels: int | str
    integrals: int                 # catalogued first integrals, all verified
    exact_planes: int | None = None    # rational meridian planes
    float_planes: int | None = None    # irrational meridian planes
    singular: dict = field(default_factory=dict)
    meridian_verdicts: list | None = None   # (kind, stability) by angle
    parallel_verdicts: list | None = None   # kind, by increasing k


def q(value) -> str:
    """A rational as a literal the expression grammar accepts."""
    v = Fraction(value)
    text = str(abs(v)) if v.denominator == 1 else f"({abs(v)})"
    return f"(-{text})" if v < 0 else text


def linear(c0, cx, cy, cz) -> str:
    terms = [(cx, "*x"), (cy, "*y"), (cz, "*z"), (c0, "")]
    text = " + ".join(f"{q(c)}{mono}" for c, mono in terms if c)
    return text or "0"


def cubic_strings(kprime: str, f: str) -> tuple[str, str, str]:
    """The cubic field with cofactor K'*z and beta = gamma = 0."""
    return (f"(1/4)*({kprime})*x*z + ({f})*y",
            f"(1/4)*({kprime})*y*z - ({f})*x",
            f"(1/2)*({kprime})*{BOWL}")


def _parallels_of(k0, k1, k2, k3) -> int:
    """Parallel count of the cubic with K' = k0 + k1*x + k2*y + k3*z."""
    if k1 or k2 or not k3:
        return 0
    z0 = abs(Fraction(-k0, k3))
    return 2 if z0 < 1 else 1 if z0 == 1 else 0


def kolmogorov_points(m: Fraction) -> list[tuple[float, float, float]]:
    """P = Q = R = 0 on the torus for every Kolmogorov field: x*y = 0, z = 0."""
    mf = float(m)
    radii = (math.sqrt(mf + 1.0), math.sqrt(mf - 1.0))
    return sorted([(s * r, 0.0, 0.0) for r in radii for s in (1, -1)]
                  + [(0.0, s * r, 0.0) for r in radii for s in (1, -1)])


def bowl_points(m: Fraction) -> list[tuple[float, float, float]]:
    """Zeros of A = y^2 + (z - 1/2)^2 on the torus: y = 0, z = 1/2."""
    mf = float(m)
    return sorted((s * math.sqrt(mf + sign * math.sqrt(3.0) / 2.0), 0.0, 0.5)
                  for s in (1, -1) for sign in (1, -1))


def quadratic(name: str, m: Fraction, alpha, f) -> Spec:
    """K' = alpha != 0, f linear: no singular points (criterion 9)."""
    f0, fx, fy, fz = f
    if not any(f):
        meridians, planes = "infinite", None
    elif f0 == 0 and fz == 0:
        meridians, planes = 2, 1        # the plane f = 0
    else:
        meridians, planes = 0, 0
    px, qy, rz = cubic_strings(q(alpha), linear(*f))
    return Spec(name, m, px, qy, rz, cofactor=f"{q(alpha)}*z",
                family="quadratic", degree=2, meridians=meridians,
                parallels=0, integrals=1, exact_planes=planes,
                float_planes=None if planes is None else 0,
                singular={"kind": "empty", "min_speed_above": 1e-3})


def kolmogorov(name: str, m: Fraction, c1, c2) -> Spec:
    """K' = c2*z, f = c1*x*y: meridians {x=0, y=0}, parallel z=0 (criterion 4)."""
    px, qy, rz = cubic_strings(f"{q(c2)}*z", f"{q(c1)}*x*y")
    return Spec(name, m, px, qy, rz, cofactor=f"{q(c2)}*z^2",
                family="kolmogorov", degree=3, meridians=4, parallels=2,
                integrals=1, exact_planes=2, float_planes=0,
                singular={"kind": "isolated-points",
                          "points": kolmogorov_points(m)},
                meridian_verdicts=[("not-periodic", None)] * 4,
                parallel_verdicts=["not-periodic"])


def named_corpus(m: Fraction) -> list[Spec]:
    """The paper's worked and named fields at one value of m = a^2."""
    return [
        Spec("worked-cubic", m, *WORKED_CUBIC, cofactor="z", family="cubic",
             degree=3, meridians=4, parallels=0, integrals=0,
             singular={"kind": "empty"}, meridian_verdicts=LIMIT_CYCLES),
        Spec("rotation", m, "y", "-x", "0", cofactor="0", family="degree-one",
             degree=1, meridians=0, parallels="infinite", integrals=2,
             singular={"kind": "empty"}),
        Spec("pseudo-type", m, "(x^2 - y^2)*y", "-(x^2 - y^2)*x", "0",
             cofactor="0", family="pseudo-type", degree=3, meridians=4,
             parallels="infinite", integrals=2,
             singular={"kind": "curves", "components": 4},
             meridian_verdicts=[("not-periodic", None)] * 4),
        Spec("bowl", m, "(y^2 + (z - 1/2)^2)*y", "-(y^2 + (z - 1/2)^2)*x",
             "0", cofactor="0", family="cubic", degree=3, meridians=0,
             parallels="infinite", integrals=0,
             singular={"kind": "isolated-points", "points": bowl_points(m),
                       "class": "linearly-zero"}),
        # K' = 2*x, beta = -m/2, f = y^2 + m + 1: on z = +-1 the angular
        # speed is -m*f + (m/2)*z*y, which never vanishes (criterion 8).
        Spec("two-parallel", m,
             "(1/2)*x^2*z + (y^2 + a^2 + 1)*y - (1/2)*a^2*z",
             "(1/2)*x*y*z - (y^2 + a^2 + 1)*x", "x*(z^2 - 1)",
             cofactor="2*x*z", family="two-parallel", degree=3, meridians=0,
             parallels=2, integrals=0, singular={"kind": "empty"},
             parallel_verdicts=["periodic-orbit", "periodic-orbit"]),
        kolmogorov("kolmogorov", m, 1, 2),
        quadratic("quadratic", m, 2, (1, 1, -2, 1)),
    ]


def square_m_probe() -> Spec:
    """The worked cubic with 2*a for a^2 at m = 4: the same field exactly."""
    return replace(named_corpus(Fraction(4))[0], name="worked-cubic-2a",
                   px=WORKED_CUBIC_2A[0], qy=WORKED_CUBIC_2A[1],
                   rz=WORKED_CUBIC_2A[2])


# -- seeded draws -------------------------------------------------------------

NONZERO = [c for c in range(-3, 4) if c]


def draw_quadratic(rng: random.Random, m: Fraction, name="quadratic-draw") -> Spec:
    f = tuple(rng.randint(-3, 3) for _ in range(4))
    return quadratic(name, m, rng.choice(NONZERO), f)


def draw_kolmogorov(rng: random.Random, m: Fraction,
                    name="kolmogorov-draw") -> Spec:
    nonzero = [c for c in range(-5, 6) if c]
    return kolmogorov(name, m, rng.choice(nonzero), rng.choice(nonzero))


def _primitive_forms() -> list[tuple[int, int]]:
    forms = set()
    for p in range(-3, 4):
        for r in range(-3, 4):
            if (p, r) == (0, 0) or math.gcd(p, r) != 1:
                continue
            if p < 0 or (p == 0 and r < 0):
                p, r = -p, -r
            forms.add((p, r))
    return sorted(forms)


FORMS = _primitive_forms()


def _form(p: int, r: int) -> str:
    return linear(0, p, r, 0)


def draw_four_meridian_cubic(rng: random.Random, m: Fraction) -> Spec:
    """f = L1*L2, a product of real linear forms: exactly four meridians."""
    k = (0, 0, 0, 0)
    while not any(k):
        k = tuple(rng.randint(-3, 3) for _ in range(4))
    l1, l2 = rng.choice(FORMS), rng.choice(FORMS)
    c = rng.choice(NONZERO)
    f = f"{q(c)}*({_form(*l1)})*({_form(*l2)})"
    px, qy, rz = cubic_strings(linear(*k), f)
    kolmo = k[:3] == (0, 0, 0) and {l1, l2} == {(1, 0), (0, 1)}
    return Spec("four-meridian-cubic", m, px, qy, rz,
                cofactor=f"({linear(*k)})*z",
                family="kolmogorov" if kolmo else "cubic", degree=3,
                meridians=4, parallels=_parallels_of(*k),
                integrals=1 if kolmo else 0,
                exact_planes=1 if l1 == l2 else 2, float_planes=0)


IRREDUCIBLE = ["x^2 + y^2", "x^2 + x*y + y^2", "2*x^2 - x*y + y^2"]


def draw_pseudo_type(rng: random.Random, m: Fraction, n: int) -> Spec:
    """(A*y, -A*x, 0) with A of degree n - 1 built from known factors.

    A = c * prod L_i^e_i * [irreducible quadratic] * [x^2 - s*y^2]; the
    meridian planes are the L_i (exact, multiplicity e_i) and the two
    irrational planes x = +-sqrt(s)*y.
    """
    budget = n - 1
    factors = [q(rng.choice(NONZERO))]
    float_planes = 0
    if budget >= 2 and rng.random() < 0.3:
        factors.append(f"(x^2 - {rng.choice([2, 3, 5])}*y^2)")
        float_planes = 2
        budget -= 2
    if budget >= 2 and rng.random() < 0.3:
        factors.append(f"({rng.choice(IRREDUCIBLE)})")
        budget -= 2
    forms: list[tuple[int, int]] = []
    linear_degree = budget
    while budget:
        form = rng.choice([fm for fm in FORMS if fm not in forms])
        e = rng.randint(1, min(budget, 2))
        forms.append(form)
        factors.append(f"({_form(*form)})" + (f"^{e}" if e > 1 else ""))
        budget -= e
    a = "*".join(factors)
    if n == 2:
        family, integrals = "quadratic", 1
    elif n == 3 and sorted(forms) == [(0, 1), (1, 0)]:
        family, integrals = "kolmogorov", 1
    else:
        family, integrals = "pseudo-type", 2
    return Spec(f"pseudo-type-{n}", m, f"({a})*y", f"-({a})*x", "0",
                cofactor="0", family=family, degree=n,
                meridians=2 * (linear_degree + float_planes),
                parallels="infinite", integrals=integrals,
                exact_planes=len(forms), float_planes=float_planes)
