import random

import pytest

from cartanvp import forms as fm
from cartanvp import linalg as la
from cartanvp import symexpr as sx


def rand_poly(rng, names, degree=2, terms=3, coeff_range=4):
    """Random polynomial with small integer coefficients."""
    acc = sx.ZERO
    for _ in range(terms):
        c = rng.randint(-coeff_range, coeff_range)
        if c == 0:
            c = 1
        term = sx.num(c)
        for _ in range(rng.randint(0, degree)):
            term = term * sx.var(rng.choice(names))
        acc = acc + term
    return acc


@pytest.fixture
def eliminations(monkeypatch):
    """The argument tuples of every `linalg.gauss_eliminate` call made
    while the test runs (clear it to start counting later)."""
    calls = []
    eliminate = la.gauss_eliminate

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(la, "gauss_eliminate", counting)
    return calls


def rand_form(rng, chart, degree, coeff_terms=2):
    import itertools

    names = list(chart.coords)
    idxs = list(itertools.combinations(range(chart.dim), degree))
    rng.shuffle(idxs)
    take = idxs[: min(3, len(idxs))]
    return fm.DiffForm(
        chart,
        degree,
        {i: rand_poly(rng, names, degree=2, terms=coeff_terms) for i in take},
    )


def rand_field(rng, chart):
    names = list(chart.coords)
    return fm.VecField(
        chart, [rand_poly(rng, names, degree=1, terms=2) for _ in range(chart.dim)]
    )


def chi_forms(alphas):
    """The hatted wedges of one-form factors: chi_s is (-1)^(s-1) times the
    wedge of all factors but the s-th (s counted from 1)."""
    out = []
    for s in range(len(alphas)):
        chi = fm.wedge_all([a for i, a in enumerate(alphas) if i != s])
        out.append(-chi if s % 2 else chi)
    return out


# the action form of the planar rotation field, given as theta: the
# problem spec of the route through the contraction matrix
ROTATION_THETA = {
    "chart": {"base": ["t"], "fiber_z": ["x", "y"], "fiber_w": []},
    "theta": [
        {"coeff": "-1/2*y", "index": ["x"]},
        {"coeff": "1/2*x", "index": ["y"]},
        {"coeff": "-1/2*x^2 - 1/2*y^2", "index": ["t"]},
    ],
    "options": {"seed": 50343},
}


@pytest.fixture
def rng():
    return random.Random(0xC4A7)


@pytest.fixture
def chart5():
    return fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"])


@pytest.fixture
def chart6w():
    return fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"], ["w"])
