"""Helpers shared by the generators and the output checks.

Nothing here imports cartanvp: the generators emit plain JSON-able data
(coefficient strings in the spec grammar) and the checks evaluate the
program's printed output with their own exact rational evaluator, so no
reference value comes from the code under test.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^)|([-+*/(),]))")


def rand_poly(rng: random.Random, names, degree: int = 2, terms: int = 3, coeff: int = 4) -> dict:
    """Random polynomial as {exponent tuple over `names`: Fraction}; term i
    has total degree `degree - i % (degree + 1)`, so the shape is fixed and
    only variables and coefficients are drawn."""
    out: dict[tuple, Fraction] = {}
    for t in range(terms):
        c = Fraction(rng.choice([i for i in range(-coeff, coeff + 1) if i]), rng.choice((1, 1, 2, 3)))
        exps = [0] * len(names)
        for _ in range(degree - t % (degree + 1)):
            exps[rng.randrange(len(names))] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + c
        if out[key] == 0:
            del out[key]
    return out or {tuple([0] * len(names)): Fraction(1)}


def poly_text(poly: dict, names) -> str:
    """Spec-grammar text of a polynomial from `rand_poly`."""
    parts = []
    for exps, c in sorted(poly.items()):
        factors = [f"({c.numerator}/{c.denominator})" if c.denominator != 1 else f"({c.numerator})"]
        for n, e in zip(names, exps):
            if e:
                factors.append(n if e == 1 else f"{n}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def poly_diff(poly: dict, i: int) -> dict:
    out = {}
    for exps, c in poly.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c * exps[i]
    return {k: v for k, v in out.items() if v}


def frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def rand_frac(rng: random.Random, lo: int = -3, hi: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 5)))
        if c or not nonzero:
            return c


def exact_eval(text: str, env: dict, funcs=None) -> Fraction:
    """Exact value of an infix expression (spec grammar or the program's
    printed form) at a rational point.

    `env` maps variable names to Fractions; `funcs` maps function names to
    callables of Fraction arguments.  A small recursive-descent evaluator:
    it shares no code with the program's parser or printer.
    """
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        toks.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    funcs = funcs or {}
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = unary()
        while peek() in ("*", "/"):
            v = v * unary() if take() == "*" else v / unary()
        return v

    def unary():
        if peek() == "-":
            take()
            return -unary()
        if peek() == "+":
            take()
            return unary()
        return power()

    def power():
        base = atom()
        if peek() == "^":
            take()
            e = unary()
            if e.denominator != 1:
                raise ValueError("non-integer exponent")
            return base ** int(e)
        return base

    def atom():
        t = take()
        if t == "(":
            v = expr()
            if take() != ")":
                raise ValueError("expected ')'")
            return v
        if t.isdigit():
            return Fraction(int(t))
        if peek() == "(":
            take()
            args = []
            if peek() != ")":
                args.append(expr())
                while peek() == ",":
                    take()
                    args.append(expr())
            if take() != ")":
                raise ValueError("expected ')'")
            return funcs[t](*args)
        return env[t]

    v = expr()
    if i != len(toks):
        raise ValueError(f"trailing tokens in {text!r}")
    return v


class OpaqueValues:
    """Consistent random rational values for opaque atoms, keyed by name
    and argument values, so one atom reads the same wherever it appears."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.memo: dict = {}

    def func(self, name: str):
        def f(*args):
            key = (name, args)
            if key not in self.memo:
                self.memo[key] = rand_frac(self.rng, -9, 9, nonzero=True) / 3
            return self.memo[key]

        return f


class Dual:
    """Exact forward-mode dual number: value plus one directional
    derivative, so `exact_eval` also yields exact partial derivatives."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=Fraction(0)):
        self.v, self.d = Fraction(v), Fraction(d)

    @staticmethod
    def _c(o):
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = self._c(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._c(o)
        return Dual(self.v - o.v, self.d - o.d)

    def __rsub__(self, o):
        return self._c(o) - self

    def __mul__(self, o):
        o = self._c(o)
        return Dual(self.v * o.v, self.d * o.v + self.v * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._c(o)
        return Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))

    def __rtruediv__(self, o):
        return self._c(o) / self

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __pow__(self, n: int):
        if n == 0:
            return Dual(1)
        if n < 0:
            return Dual(1) / self ** (-n)
        return Dual(self.v**n, n * self.v ** (n - 1) * self.d)


def partial(text: str, point: dict, name: str) -> Fraction:
    """Exact partial derivative of `text` along `name` at `point`."""
    env = {n: Dual(v, 1 if n == name else 0) for n, v in point.items()}
    out = exact_eval(text, env)
    return out.d if isinstance(out, Dual) else Fraction(0)


# exterior algebra at one point: a form is {ascending index tuple: Fraction}


def _sort_sign(idx) -> tuple[int, tuple]:
    inv = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx)) if idx[a] > idx[b])
    return (-1 if inv % 2 else 1), tuple(sorted(idx))


def _acc(out: dict, idx, c):
    out[idx] = out.get(idx, Fraction(0)) + c


def clean(form: dict) -> dict:
    return {i: c for i, c in form.items() if c}


def wedge_at(a: dict, b: dict) -> dict:
    out: dict = {}
    for I, ca in a.items():
        for J, cb in b.items():
            if set(I) & set(J):
                continue
            sign, K = _sort_sign(I + J)
            _acc(out, K, sign * ca * cb)
    return clean(out)


def interior_at(X, a: dict) -> dict:
    out: dict = {}
    for I, c in a.items():
        for pos, i in enumerate(I):
            _acc(out, I[:pos] + I[pos + 1 :], (-1) ** pos * X[i] * c)
    return clean(out)


def add_at(a: dict, b: dict) -> dict:
    out = dict(a)
    for I, c in b.items():
        _acc(out, I, c)
    return clean(out)


def form_at(terms: dict, point: dict) -> dict:
    """Value at `point` of a form given as {index tuple: coefficient text}."""
    return clean({I: exact_eval(t, point) for I, t in terms.items()})


def d_at(terms: dict, point: dict, names) -> dict:
    """Exterior derivative at `point` of a form given as {index tuple:
    coefficient text}: d(c dx^I) = sum_i d_i c dx^i ^ dx^I."""
    out: dict = {}
    for I, text in terms.items():
        for i, name in enumerate(names):
            if i in I:
                continue
            sign, K = _sort_sign((i,) + tuple(I))
            _acc(out, K, sign * partial(text, point, name))
    return clean(out)


def rand_point(rng: random.Random, names) -> dict:
    return {n: rand_frac(rng, -7, 7) / 2 + Fraction(1, 7) for n in names}
