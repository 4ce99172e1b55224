"""Exact symbolic scalar arithmetic.

An `Expr` is a quotient of two polynomials over the rationals whose
indeterminates are atoms: named variables and function atoms.  The known
unary functions sin, cos, exp, ln carry differentiation rules; any other
function name is an opaque atom (used for generic coefficient functions
such as B11(x1, x2, z1)) whose derivatives are fresh opaque atoms name@i.
A function atom is keyed by its name and the keys of its arguments, which
are `Expr`s themselves.

Every `Expr` is canonical: the constructors, the operators, `diff`,
`subst` and `parse` build its payload, a `_Rat` quotient in lowest terms
with a monic denominator, and a node holds nothing else.  A common factor
of two sums is their gcd (`_t_gcd`, the recursive subresultant PRS on the
primitive int parts); sums and products of quotients take the gcd of
their operands' parts only, never of a product (Henrici).  So each
rational function of the atoms has one payload, `==` is its equality,
and no result depends on the order in which it was summed.
Coefficient arithmetic is exact and in `int`s: each polynomial is a
positive rational content (two ints) times a primitive polynomial with
`int` coefficients, so a product multiplies the contents once and the
terms as `int`s, and a sum takes one gcd.  A product goes by its
operands' shapes: the shared unit `_RAT_ONE` returns the other operand
(and `*` and `/` its node), a one-term factor maps the other's terms one
to one (a constant rescales the content, sharing the term dict when its
coefficient is 1; a monomial shifts each term), and only a sum times a
sum runs the double loop.  A `Fraction` is formed only
where a coefficient is read (`const_value`, `poly_terms`).  `key` and
printing write a payload's terms in descending `_mono_order`, numerator
over denominator; the text of each atom is cached by its registry key.
`free_vars` is a copy of the payload's variable set (`_rat_vars`: the
union over the payload's distinct atoms, cached on the payload).  The
exterior calculus of `forms` computes on payloads directly (`_rat_mul`,
`_rat_neg`, `_rat_add` and `_rat_diff`, the payload of `diff`, by the
variables `_diff_vars` keeps), so a chain of form operations builds no
node in between.  `diff` is the quotient rule over polynomial
derivatives, each atom's derivative formed once by `_rat` arithmetic and
cached.
`parse` reads its text in one regular-expression pass into a token list
and descends over the list, combining payloads as the operators do and
building one node at the end; a variable is the variable's registry atom,
or the expression the caller binds to its name, and an integer below
1024 one cached node.  A power of a sum that would expand to more than
`_POWER_TERM_LIMIT` terms is refused, by `**` and by `parse` (a
ParseError at its exponent).  Floats appear
only in evaluation and sampling, which this module owns for the whole
package: `compile_expr` turns a payload into a float function once per
symbol tuple (the one evaluator: one set of closures, on floats or on
columns of floats with the same bits per row), kept on the payload and
freed with it, so every later zero test, pivot choice or rank
certificate of that payload reuses it; and `sample_points` is
the one seeded sampler of evaluation points, which are tuples of floats
aligned with a symbol list of variable names and opaque-atom keys.  The
module does not import numpy: a closure handed a numpy column finds
numpy in `sys.modules`, so exact work and scalar evaluation never load
it.
"""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    DivisionByZeroError,
    ExpansionLimitError,
    ParseError,
    UnboundFunctionError,
    UnboundVariableError,
)

__all__ = [
    "Expr",
    "num",
    "var",
    "variables",
    "sin",
    "cos",
    "exp",
    "ln",
    "func",
    "canon",
    "diff",
    "compile_expr",
    "sample_points",
    "point_label",
    "subst",
    "free_vars",
    "numer_denom",
    "opaque_atoms",
    "poly_terms",
    "constant_ratio",
    "is_zero",
    "ZeroTest",
    "parse",
    "DEFAULT_SEED",
    "DEFAULT_BOX",
    "ZERO_THRESHOLD",
    "EVAL_DIV_TOLERANCE",
    "SINGULAR_POINT_ERRORS",
]

DEFAULT_SEED = 0xC4A7
DEFAULT_BOX = (-1.0, 1.0)
ZERO_THRESHOLD = 1e-9
EVAL_DIV_TOLERANCE = 1e-12
SAMPLE_BUDGET = 64
# what evaluating a form at a singular point raises (a pole, an overflow, a
# logarithm or power off its domain): such a point is skipped, not decisive
SINGULAR_POINT_ERRORS = (DivisionByZeroError, OverflowError, ValueError)

KNOWN_FUNCS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
}

NumberLike = Union[int, Fraction, "Expr"]


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """Immutable scalar: the node of its payload `_rat`, a quotient in
    lowest terms.  Use the module constructors (`num`, `var`, `sin`, ...,
    `func`, `parse`) and the overloaded operators; each returns a node."""

    __slots__ = ("_rat", "_key")

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- structural identity ------------------------------------------------

    def key(self) -> tuple:
        """Hashable, totally ordered encoding of the payload (`_rat_key`)."""
        k = self._key
        if k is None:
            k = _rat_key(self._rat)
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        a, b = self._rat, other._rat
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return _rat_to_expr(_rat_add(self._rat, _coerce(other)._rat))

    def __radd__(self, other):
        return _rat_to_expr(_rat_add(_coerce(other)._rat, self._rat))

    def __sub__(self, other):
        return _rat_to_expr(_rat_add(self._rat, _rat_neg(_coerce(other)._rat)))

    def __rsub__(self, other):
        return _rat_to_expr(_rat_add(_coerce(other)._rat, _rat_neg(self._rat)))

    def __mul__(self, other):
        other = _coerce(other)
        rat = _rat_mul(self._rat, other._rat)
        # an unchanged payload keeps its node
        if rat is self._rat:
            return self
        return other if rat is other._rat else _rat_to_expr(rat)

    def __rmul__(self, other):
        return _rat_to_expr(_rat_mul(_coerce(other)._rat, self._rat))

    def __truediv__(self, other):
        rat = _rat_div(self._rat, _coerce(other)._rat)
        return self if rat is self._rat else _rat_to_expr(rat)

    def __rtruediv__(self, other):
        return _rat_to_expr(_rat_div(_coerce(other)._rat, self._rat))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        return _rat_to_expr(_rat_pow_bounded(self._rat, n))

    def __neg__(self):
        return _rat_to_expr(_rat_neg(self._rat))

    def __pos__(self):
        return self

    # -- conveniences -------------------------------------------------------

    def diff(self, v) -> "Expr":
        return diff(self, v)

    def is_const_zero(self) -> bool:
        return not self._rat.num[2]

    def const_value(self) -> Optional[Fraction]:
        """Fraction value if the expression is a constant, else None."""
        return _rat_const(self._rat)

    def __str__(self):
        return _rat_format(self._rat, 0)

    def __repr__(self):
        return f"Expr({_rat_format(self._rat, 0)!r})"


def _rat_const(rat: "_Rat") -> Optional[Fraction]:
    p, q, terms = rat.num
    if not terms:
        return Fraction(0)
    if rat.den is _ONE_POLY and len(terms) == 1 and _EMPTY_MONO in terms:
        return Fraction(p * terms[_EMPTY_MONO], q)
    return None


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        v = Fraction(x)
        return _rat_to_expr(_Rat(_p_const(v.numerator, v.denominator), _ONE_POLY) if v else _RAT_ZERO)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def num(value) -> Expr:
    """Exact rational constant."""
    return _coerce(Fraction(value))


def var(name: str) -> Expr:
    # identifiers: letter first, then letters/digits/underscores (the
    # underscore admits jet symbols like Dz1_x2)
    if not name or not name[0].isalpha() or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid variable name {name!r}")
    return _atom_node(("v", name))


def variables(names: str) -> list[Expr]:
    """Space-separated batch of variables: ``x, y = variables("x y")``."""
    return [var(n) for n in names.split()]


def sin(e) -> Expr:
    return func("sin", e)


def cos(e) -> Expr:
    return func("cos", e)


def exp(e) -> Expr:
    return func("exp", e)


def ln(e) -> Expr:
    return func("ln", e)


def func(name: str, *args) -> Expr:
    """Function atom; an opaque one's derivatives are fresh atoms ``name@i``."""
    if name in KNOWN_FUNCS and len(args) != 1:
        raise ValueError(f"{name} takes exactly one argument")
    return _rat_to_expr(_func_rat(name, tuple(_coerce(a) for a in args)))


# ---------------------------------------------------------------------------
# canonical form: polynomial quotient over atoms
#
# Poly: a triple (p, q, terms) that means p/q times `terms`.  The content
# p/q is a positive rational in lowest terms, held as two ints; `terms`
# maps monomial -> nonzero int coefficient and is primitive (the gcd of
# the coefficients' absolute values is 1).  The zero polynomial is
# (0, 1, {}).  Each rational polynomial has exactly one triple, so `==` on
# polys is equality of the polynomials they mean.  No payload holds a
# `Fraction`: a coefficient is formed as content times int where it is
# read (`const_value`, `poly_terms`; printing forms it as a reduced int
# pair), and its float is the
# correctly rounded int quotient, as `float` of that `Fraction` is.
# monomial = sorted tuple of (atom_key, exponent).  Atom keys index
# _ATOM_REGISTRY, which holds the node of each atom, and a function atom's
# key its arguments in _ATOM_ARGS.  Payloads are shared and never mutated;
# their dict order depends on how they were built, so every consumer that
# needs an order sorts.

_ATOM_REGISTRY: dict[tuple, Expr] = {}
_ATOM_ARGS: dict[tuple, tuple] = {}

_EMPTY_MONO: tuple = ()
_ZERO_POLY = (0, 1, {})
_ONE_POLY = (1, 1, {_EMPTY_MONO: 1})


def _q_mul(ap: int, aq: int, bp: int, bq: int) -> tuple[int, int]:
    """(ap/aq) * (bp/bq) in lowest terms, from two fractions in lowest terms."""
    if aq == 1 and bq == 1:
        return ap * bp, 1
    g, h = gcd(ap, bq), gcd(bp, aq)
    return (ap // g) * (bp // h), (aq // h) * (bq // g)


def _p_const(n: int, d: int) -> tuple:
    """The constant polynomial n/d, for n != 0 and d > 0."""
    g = gcd(n, d)
    return abs(n) // g, d // g, {_EMPTY_MONO: 1 if n > 0 else -1}


def _p_primitive(p: int, q: int, terms: dict) -> tuple:
    """The poly p/q times the int polynomial `terms`, whose coefficients
    may have a common factor: it moves into the content."""
    if not terms:
        return _ZERO_POLY
    h = gcd(*terms.values())
    if h == 1:
        return p, q, terms
    return (*_q_mul(p, q, h, 1), {m: c // h for m, c in terms.items()})


def _p_add(a: tuple, b: tuple) -> tuple:
    ap, aq, A = a
    bp, bq, B = b
    if not A:
        return b
    if not B:
        return a
    if ap == bp and aq == bq:
        out, kb = dict(A), 1
    else:
        # a + b = (g/l) (ka A + kb B): g/l is the rational gcd of the
        # contents, in lowest terms, and ka, kb are ints
        g, l = gcd(ap, bp), lcm(aq, bq)
        ka, kb = ap // g * (l // aq), bp // g * (l // bq)
        out = {m: ka * c for m, c in A.items()} if ka != 1 else dict(A)
        ap, aq = g, l
    for mono, c in B.items():
        s = out.get(mono, 0) + kb * c
        if s:
            out[mono] = s
        else:
            del out[mono]
    return _p_primitive(ap, aq, out)


def _p_neg(a: tuple) -> tuple:
    return a[0], a[1], {m: -c for m, c in a[2].items()}


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two monomials: one merge of their sorted atom pairs."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p, q = m1[i], m2[j]
        if p[0] == q[0]:
            out.append((p[0], p[1] + q[1]))
            i += 1
            j += 1
        elif p[0] < q[0]:
            out.append(p)
            i += 1
        else:
            out.append(q)
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _p_mul(a: tuple, b: tuple) -> tuple:
    """a * b, by the operands' shapes.  A one-term operand maps the other's
    terms one to one, since distinct monomials times one monomial stay
    distinct: the constant 1 keeps the other's term dict (and returns the
    other when its content is 1 too), another constant scales the
    coefficients, and a monomial shifts each term.  Only a sum times a
    sum runs the double loop (`_t_product`).  Gauss's lemma: a product of
    primitive polynomials is primitive.  The term dicts need not be
    primitive: `_t_mul` passes gcd cofactors such as {(): 3}."""
    ap, aq, A = a
    bp, bq, B = b
    if not A or not B:
        return _ZERO_POLY
    if len(A) > 1:
        if len(B) > 1:
            return (*_q_mul(ap, aq, bp, bq), _t_product(A, B))
        a, b, A, B = b, a, B, A  # the one-term operand first
    ((m1, c1),) = A.items()
    if not m1:
        if c1 == 1:
            if a[0] == 1 and a[1] == 1:
                return b
            return (*_q_mul(ap, aq, bp, bq), B)
        out = {m: c1 * c for m, c in B.items()}
    elif c1 == 1:
        out = {_mono_mul(m1, m): c for m, c in B.items()}
    else:
        out = {_mono_mul(m1, m): c1 * c for m, c in B.items()}
    return (*_q_mul(ap, aq, bp, bq), out)


def _t_product(A: dict, B: dict) -> dict:
    """The term dict of a sum times a sum."""
    out: dict = {}
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_pow(a: tuple, n: int) -> tuple:
    out = _ONE_POLY
    base = a
    while n:
        if n & 1:
            out = _p_mul(out, base)
        base = _p_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _mono_order(item):
    mono, _ = item
    return (sum(e for _, e in mono), mono)


def _content_mono(polys: Iterable[dict]) -> tuple:
    """Largest monomial dividing every monomial of every term dict."""
    acc: Optional[dict] = None
    for p in polys:
        for mono in p:
            d = dict(mono)
            if acc is None:
                acc = d
            else:
                acc = {a: min(e, d[a]) for a, e in acc.items() if a in d}
            if not acc:
                return _EMPTY_MONO
    return tuple(sorted(acc.items())) if acc else _EMPTY_MONO


def _mono_divide(mono: tuple, by: tuple) -> tuple:
    if not by:
        return mono
    d = dict(mono)
    for a, e in by:
        r = d[a] - e
        if r:
            d[a] = r
        else:
            del d[a]
    return tuple(sorted(d.items()))


def _terms_divide_mono(terms: dict, by: tuple) -> dict:
    return {_mono_divide(m, by): c for m, c in terms.items()}


# Polynomial gcd by the recursive subresultant PRS (Collins 1967; Cohen,
# A Course in Computational Algebraic Number Theory, Alg. 3.3.1), on term
# dicts (the int `terms` of a poly; atoms are the indeterminates).
# `_t_gcd` views its operands as polynomials in one atom x over the
# polynomials in the others: the gcd of their contents (the gcds of their
# coefficients in x, recursively) times the primitive part of the last
# nonzero subresultant.  A "polynomial in x" is a dict exponent -> term
# dict.  Every division is exact (`_t_exquo`); a gcd is determined up to
# its sign.

_T_ONE = {_EMPTY_MONO: 1}


def _t_mul(a: dict, b: dict) -> dict:
    return _p_mul((1, 1, a), (1, 1, b))[2]


def _t_pow(a: dict, n: int) -> dict:
    return _p_pow((1, 1, a), n)[2]


def _t_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _t_coeffs(a: dict, x: tuple) -> dict:
    """The term dict `a` as a polynomial in the atom `x`."""
    out: dict = {}
    for m, c in a.items():
        for i, (b, n) in enumerate(m):
            if b == x:
                out.setdefault(n, {})[m[:i] + m[i + 1 :]] = c
                break
        else:
            out.setdefault(0, {})[m] = c
    return out


def _t_join(u: dict, x: tuple) -> dict:
    """The term dict of the polynomial `u` in the atom `x`."""
    return {_mono_mul(m, ((x, e),)) if e else m: c for e, t in u.items() for m, c in t.items()}


def _t_degrees(a: dict) -> dict:
    """atom -> its largest exponent in the term dict `a`."""
    out: dict = {}
    for m in a:
        for x, n in m:
            if out.get(x, 0) < n:
                out[x] = n
    return out


def _t_gcd(a: dict, b: dict) -> dict:
    """A gcd of the nonzero term dicts `a` and `b`."""
    if len(a) == 1 or len(b) == 1:  # a monomial's divisors are monomials
        return {_content_mono([a, b]): gcd(*a.values(), *b.values())}
    da, db = _t_degrees(a), _t_degrees(b)
    only = da.keys() ^ db.keys()
    if only:  # an atom of one operand only: the gcd divides its coefficients there
        x = min(only)
        return _t_content([b, *_t_coeffs(a, x).values()] if x in da else [a, *_t_coeffs(b, x).values()])
    # the fewest pseudo-remainder steps
    x = min(da, key=lambda x: (min(da[x], db[x]), max(da[x], db[x]), x))
    (ca, f), (cb, g) = _u_primitive(_t_coeffs(a, x)), _u_primitive(_t_coeffs(b, x))
    if max(f) < max(g):
        f, g = g, f
    gs = hs = _T_ONE
    while True:
        delta = max(f) - max(g)
        r = _u_prem(f, g)
        if not r:
            break
        if max(r) == 0:  # coprime primitive parts
            g = {0: _T_ONE}
            break
        div = _t_mul(gs, _t_pow(hs, delta))
        f, g = g, {e: _t_exquo(t, div) for e, t in r.items()}
        gs = f[max(f)]
        if delta:
            hs = _t_exquo(_t_pow(gs, delta), _t_pow(hs, delta - 1))
    return _t_mul(_t_gcd(ca, cb), _t_join(_u_primitive(g)[1], x))


def _t_content(polys: Iterable[dict]) -> dict:
    """A gcd of the nonzero term dicts `polys`, the shortest first."""
    polys = sorted(polys, key=len)
    g = polys[0]
    for p in polys[1:]:
        if len(g) == 1 and _EMPTY_MONO in g and abs(g[_EMPTY_MONO]) == 1:
            break
        g = _t_gcd(g, p)
    return g


def _u_primitive(u: dict) -> tuple[dict, dict]:
    """(content, primitive part) of the nonzero polynomial `u` in an atom."""
    c = _t_content(u.values())
    return c, {e: _t_exquo(t, c) for e, t in u.items()}


def _u_prem(f: dict, g: dict) -> dict:
    """The pseudo-remainder of `f` by `g`, polynomials in one atom:
    lc(g)^(deg f - deg g + 1) f less a multiple of `g`, of degree below
    that of `g`."""
    dg = max(g)
    lg = g[dg]
    n = max(f) - dg + 1
    while f and (df := max(f)) >= dg:
        lf = f[df]
        out = {e: _t_mul(t, lg) for e, t in f.items() if e != df}
        for e, t in g.items():
            if e != dg:
                k = e + df - dg
                s = _t_sub(out.get(k, {}), _t_mul(lf, t))
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        f = out
        n -= 1
    if n and f:
        k = _t_pow(lg, n)
        f = {e: _t_mul(t, k) for e, t in f.items()}
    return f


def _t_exquo(a: dict, b: dict) -> dict:
    """The term dict `a / b`, for `b` a divisor of `a`: long division in
    the largest atom of `b`, each leading coefficient divided exactly."""
    if len(b) == 1:
        ((mb, cb),) = b.items()
        return {_mono_divide(m, mb): c // cb for m, c in a.items()}
    x = max(p[0] for m in b for p in m)
    u, v = _t_coeffs(a, x), _t_coeffs(b, x)
    dv = max(v)
    lv = v[dv]
    q = {}
    while u:
        du = max(u)
        t = q[du - dv] = _t_exquo(u[du], lv)
        for e, s in v.items():
            k = e + du - dv
            r = _t_sub(u.get(k, {}), _t_mul(t, s))
            if r:
                u[k] = r
            else:
                u.pop(k, None)
    return _t_join(q, x)


class _Rat:
    # vars: the names of the variables in the quotient, atoms' arguments
    # included, and only_vars: whether every atom is a variable; both set
    # by `_rat_vars`, which reads them.  evals: symbol tuple -> the float
    # closure `_compiled` made, freed with the payload
    __slots__ = ("num", "den", "vars", "only_vars", "evals")

    def __init__(self, num: tuple, den: tuple):
        self.num = num
        self.den = den
        self.vars = None
        self.evals = None


_RAT_ZERO = _Rat(_ZERO_POLY, _ONE_POLY)
_RAT_ONE = _Rat(_ONE_POLY, _ONE_POLY)


def _rat_atom(key: tuple) -> _Rat:
    return _Rat((1, 1, {((key, 1),): 1}), _ONE_POLY)


def _rat_is_zero(r: _Rat) -> bool:
    return not r.num[2]


def _atom_node(key: tuple) -> Expr:
    """The registry atom of `key`, made on the first call."""
    atom = _ATOM_REGISTRY.get(key)
    if atom is None:
        atom = _ATOM_REGISTRY[key] = _new_node(_rat_atom(key), key)
    return atom


def _func_rat(name: str, args: tuple) -> _Rat:
    """The payload of the atom `name(*args)`."""
    key = ("f", name, tuple(a.key() for a in args))
    if key not in _ATOM_REGISTRY:
        _ATOM_ARGS[key] = args
        _atom_node(key)
    return _rat_atom(key)


def _rat_normalize(num: tuple, den: tuple) -> _Rat:
    """num/den in lowest terms with the denominator monic: a common factor
    of two sums is their `_t_gcd`, then `_rat_lowest`."""
    g = _t_common(num[2], den[2])
    if g is not None:
        num, den = _p_exquo(num, g), _p_exquo(den, g)
    return _rat_lowest(num, den)


def _rat_lowest(num: tuple, den: tuple) -> _Rat:
    """num/den, whose only common factors are monomials, with the common
    monomial cancelled and the denominator monic: its content is 1/l for
    its leading int coefficient l > 0."""
    (np_, nq, N), (dp, dq, D) = num, den
    if not D:
        raise DivisionByZeroError("denominator is identically zero")
    if not N:
        return _RAT_ZERO
    content = _content_mono([N, D])
    if content:
        N, D = _terms_divide_mono(N, content), _terms_divide_mono(D, content)
        num, den = (np_, nq, N), (dp, dq, D)
    lead = max(D.items(), key=_mono_order)[1]
    if dp != 1 or dq != lead:
        # divide both by the leading coefficient dp/dq * lead: only the
        # contents change, and the signs when lead < 0
        if lead < 0:
            lead = -lead
            N = {m: -c for m, c in N.items()}
            D = {m: -c for m, c in D.items()}
        g = gcd(dq, lead)
        num = (*_q_mul(np_, nq, dq // g, dp * (lead // g)), N)
        den = 1, lead, D
    if len(D) == 1 and _EMPTY_MONO in D:
        den = _ONE_POLY
    return _Rat(num, den)


def _p_exquo(p: tuple, g: dict) -> tuple:
    """The poly `p` divided by its primitive factor `g`, up to sign."""
    return p[0], p[1], _t_exquo(p[2], g)


def _t_common(a: dict, b: dict) -> Optional[dict]:
    """A gcd of two sums that is not a constant, else None."""
    if len(a) > 1 and len(b) > 1:
        g = _t_gcd(a, b)
        if len(g) > 1 or _EMPTY_MONO not in g:
            return g
    return None


# Sums and products of reduced quotients (Henrici 1956): the gcd is taken
# of the operands' parts, never of their products.  Of a/b + c/d, with
# g = gcd(b, d), only g can share a factor with a(d/g) + c(b/g); of
# (a/b)(c/d), only gcd(a, d) and gcd(c, b) cancel.


def _rat_add(a: _Rat, b: _Rat) -> _Rat:
    # every denominator 1 is the shared _ONE_POLY; with two of them
    # _rat_normalize is the identity (empty content, leading coefficient 1)
    if a.den is _ONE_POLY and b.den is _ONE_POLY:
        return _Rat(_p_add(a.num, b.num), _ONE_POLY)
    if a.den == b.den:
        return _rat_normalize(_p_add(a.num, b.num), a.den)
    g = _t_common(a.den[2], b.den[2])
    if g is None:
        return _rat_lowest(
            _p_add(_p_mul(a.num, b.den), _p_mul(b.num, a.den)), _p_mul(a.den, b.den)
        )
    da, db = _p_exquo(a.den, g), _p_exquo(b.den, g)
    num = _p_add(_p_mul(a.num, db), _p_mul(b.num, da))
    h = _t_common(num[2], g)
    if h is not None:
        num, g = _p_exquo(num, h), _t_exquo(g, h)
    return _rat_lowest(num, _p_mul(_p_mul(da, db), (1, 1, g)))


def _rat_mul(a: _Rat, b: _Rat) -> _Rat:
    # the shared unit is free: the other operand is returned as it is
    if a is _RAT_ONE:
        return b
    if b is _RAT_ONE:
        return a
    if a.den is _ONE_POLY and b.den is _ONE_POLY:
        num = _p_mul(a.num, b.num)
        if num is b.num:
            return b
        return a if num is a.num else _Rat(num, _ONE_POLY)
    return _quotient_product(a.num, a.den, b.num, b.den)


def _quotient_product(an: tuple, ad: tuple, bn: tuple, bd: tuple) -> _Rat:
    """(an/ad)(bn/bd) for two quotients in lowest terms."""
    g = _t_common(an[2], bd[2])
    if g is not None:
        an, bd = _p_exquo(an, g), _p_exquo(bd, g)
    g = _t_common(bn[2], ad[2])
    if g is not None:
        bn, ad = _p_exquo(bn, g), _p_exquo(ad, g)
    return _rat_lowest(_p_mul(an, bn), _p_mul(ad, bd))


def _rat_neg(r: _Rat) -> _Rat:
    """-r: the numerator negated, the denominator kept (`_rat_mul(r, -1)`,
    whose normalization is the identity here)."""
    return _Rat(_p_neg(r.num), r.den)


def _rat_div(a: _Rat, b: _Rat) -> _Rat:
    if b is _RAT_ONE:
        return a
    return _quotient_product(a.num, a.den, b.den, b.num)


def _rat_pow(a: _Rat, n: int) -> _Rat:
    # powers of coprime polynomials are coprime
    if n == 0:
        return _RAT_ONE
    if n < 0:
        return _rat_lowest(_p_pow(a.den, -n), _p_pow(a.num, -n))
    return _rat_lowest(_p_pow(a.num, n), _p_pow(a.den, n))


# the most terms a power may expand to: a sum of t terms to the n-th
# power has up to C(n + t - 1, t - 1) of them (one per monomial of degree
# n in t indeterminates)
_POWER_TERM_LIMIT = 1000


def _rat_pow_bounded(a: _Rat, n: int) -> _Rat:
    """a^n for `**` and `parse`, refused (ExpansionLimitError) when a
    polynomial of a to the |n|-th power could exceed the term limit."""
    terms = max((comb(abs(n) + t - 1, t - 1) for t in (len(a.num[2]), len(a.den[2])) if t > 1), default=1)
    if terms > _POWER_TERM_LIMIT:
        raise ExpansionLimitError(f"power too large to expand (over {_POWER_TERM_LIMIT} terms)")
    return _rat_pow(a, n)


def _rat_radial_integral(r: _Rat, q: int) -> _Rat:
    """The integral of t^(q-1) c(t x) dt over [0, 1] of a polynomial
    payload c: each term of total degree d divided by q + d."""
    p, pq, P = r.num
    weights = {m: q + sum(e for _, e in m) for m in P}
    l = lcm(*weights.values())
    out = {m: c * (l // weights[m]) for m, c in P.items()}
    return _Rat(_p_primitive(*_q_mul(p, pq, 1, l), out), _ONE_POLY)


def canon(e) -> Expr:
    """The canonical form: the identity on an `Expr`, which is canonical
    at construction, and the constant node of an int or Fraction."""
    return _coerce(e)


def _rat_to_expr(rat: _Rat) -> Expr:
    """The node of a payload: ZERO, the shared node of an integer the
    parser has met (ONE among them), the registry atom for a single atom
    with coefficient 1, else a new node."""
    p, q, terms = rat.num
    if rat.den is _ONE_POLY and len(terms) <= 1:
        if not terms:
            return ZERO
        ((mono, c),) = terms.items()
        if not mono:
            if q == 1:
                leaf = _INT_LEAVES.get(p * c)
                if leaf is not None:
                    return leaf
        elif c == 1 and p == 1 and q == 1 and len(mono) == 1 and mono[0][1] == 1:
            return _ATOM_REGISTRY[mono[0][0]]
    return _new_node(rat)


def _new_node(rat: _Rat, key: Optional[tuple] = None) -> Expr:
    out = object.__new__(Expr)
    object.__setattr__(out, "_rat", rat)
    object.__setattr__(out, "_key", key)
    return out


ZERO = _new_node(_RAT_ZERO)
ONE = _new_node(_RAT_ONE)

# the nodes of small integer literals, shared by all parses (an Expr is
# immutable); `_rat_to_expr` returns them for their payloads
_INT_LEAF_LIMIT = 1024
_INT_LEAVES: dict[int, Expr] = {0: ZERO, 1: ONE}


def _rat_key(rat: _Rat) -> tuple:
    """The key of a payload: numerator over denominator ("d"), a sum of
    terms in descending `_mono_order` ("a"), a term its coefficient ("c",
    unless it is 1) times its atoms' keys or powers ("p"), a product of
    several ("m")."""
    num = _poly_key(rat.num)
    return num if rat.den is _ONE_POLY else ("d", (num, _poly_key(rat.den)))


def _poly_key(poly: tuple) -> tuple:
    p, q, terms = poly
    if not terms:
        return ("c", (0, 1))
    keys = [_term_key(m, c, p, q) for m, c in sorted(terms.items(), key=_mono_order, reverse=True)]
    return keys[0] if len(keys) == 1 else ("a", tuple(keys))


def _term_key(mono: tuple, c: int, p: int, q: int) -> tuple:
    g = gcd(p * c, q)
    n, d = p * c // g, q // g
    factors = [("c", (n, d))] if n != 1 or d != 1 or not mono else []
    factors += [a if e == 1 else ("p", a, e) for a, e in mono]
    return factors[0] if len(factors) == 1 else ("m", tuple(factors))


# ---------------------------------------------------------------------------
# differentiation


# (atom key, variable) -> payload of the atom's derivative
_ATOM_DIFF: dict[tuple, _Rat] = {}


def diff(e: Expr, v) -> Expr:
    """Partial derivative with respect to variable `v`: the derivative of
    the payload (`_rat_diff`)."""
    if isinstance(v, Expr):
        if v is not _ATOM_REGISTRY.get(("v", str(v))):
            raise ValueError("can only differentiate by a variable")
        v = str(v)
    return _rat_to_expr(_rat_diff(_coerce(e)._rat, v))


def _rat_diff(r: _Rat, v: str) -> _Rat:
    """Derivative of a payload by `v`: the quotient rule over `_p_diff`,
    in lowest terms.  With g = gcd(D, D'), (N/D)' is (N'(D/g) - N(D'/g))
    over D(D/g), and only g can share a factor with that numerator."""
    dn = _p_diff(r.num, v)
    if r.den is _ONE_POLY:
        return dn
    D, dd = r.den, _p_diff(r.den, v)
    if _rat_is_zero(dd):
        return _rat_div(dn, _Rat(D, _ONE_POLY))
    if dn.den is not _ONE_POLY or dd.den is not _ONE_POLY:
        Dr = _Rat(D, _ONE_POLY)
        return _rat_add(
            _rat_div(dn, Dr), _rat_neg(_rat_div(_rat_mul(_Rat(r.num, _ONE_POLY), dd), _rat_mul(Dr, Dr)))
        )
    g = _t_common(D[2], dd.num[2])
    if g is None:  # D and D' share at most a monomial
        return _rat_lowest(_p_add(_p_mul(dn.num, D), _p_neg(_p_mul(r.num, dd.num))), _p_mul(D, D))
    Dg = _p_exquo(D, g)
    num = _p_add(_p_mul(dn.num, Dg), _p_neg(_p_mul(r.num, _p_exquo(dd.num, g))))
    h = _t_common(num[2], g)
    if h is not None:
        num, g = _p_exquo(num, h), _t_exquo(g, h)
    return _rat_lowest(num, _p_mul(_p_mul(Dg, Dg), (1, 1, g)))


def _p_diff(p: tuple, v: str) -> _Rat:
    """Derivative of a polynomial payload by `v`: each atom of each monomial
    lowered once, times its exponent and its derivative.  The polynomial
    atom derivatives are summed as ints; a quotient one (ln, atoms over
    quotients) adds its term by `_rat` arithmetic."""
    cp, cq, terms = p
    out: dict = {}
    scale = 1  # out is the derivative times scale * cq / cp
    quotients = _RAT_ZERO
    vkey = ("v", v)
    for mono, c in terms.items():
        for i, (a, n) in enumerate(mono):
            if a[0] == "v":
                if a != vkey:
                    continue
                d = _RAT_ONE
            else:
                d = _ATOM_DIFF.get((a, v))
                if d is None:
                    d = _ATOM_DIFF[a, v] = _atom_diff(a, v)
                if _rat_is_zero(d):
                    continue
            dp, dq, da = d.num
            rest = mono[:i] + ((a, n - 1),) + mono[i + 1 :] if n > 1 else mono[:i] + mono[i + 1 :]
            if d.den is not _ONE_POLY:
                k = c * n
                term = (*_p_const(k * cp, cq)[:2], {rest: 1 if k > 0 else -1})
                quotients = _rat_add(quotients, _rat_mul(_Rat(term, _ONE_POLY), d))
                continue
            if scale % dq:  # a new denominator of a content
                f = dq // gcd(scale, dq)
                out = {m: f * x for m, x in out.items()}
                scale *= f
            k = c * n * dp * (scale // dq)
            for m, c2 in da.items():
                m = _mono_mul(rest, m)
                s = out.get(m, 0) + k * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    g = gcd(cp, scale)
    poly = _Rat(_p_primitive(*_q_mul(cp // g, cq, 1, scale // g), out), _ONE_POLY)
    return poly if _rat_is_zero(quotients) else _rat_add(poly, quotients)


def _atom_diff(a: tuple, v: str) -> _Rat:
    """Derivative of the function atom `a` by `v`, by the chain rule: the
    outer derivative (cos, -sin, exp, 1/u, or the formal partial name@i
    of an opaque atom) times that of each argument."""
    name, args = a[1], _ATOM_ARGS[a]
    if name in KNOWN_FUNCS:
        u = args[0]._rat
        if name == "sin":
            outer = _func_rat("cos", args)
        elif name == "cos":
            outer = _rat_neg(_func_rat("sin", args))
        elif name == "exp":
            outer = _rat_atom(a)
        else:
            outer = _rat_div(_RAT_ONE, u)
        return _rat_mul(outer, _rat_diff(u, v))
    out = _RAT_ZERO
    for i, x in enumerate(args, start=1):
        dx = _rat_diff(x._rat, v)
        if not _rat_is_zero(dx):
            out = _rat_add(out, _rat_mul(_func_rat(f"{name}@{i}", args), dx))
    return out


# ---------------------------------------------------------------------------
# substitution and inspection


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (simultaneous)."""
    mapping = {k: _coerce(v) for k, v in mapping.items()}
    return _rat_to_expr(_rat_subst(e._rat, mapping, {}))


def _rat_subst(r: _Rat, mapping: Mapping[str, Expr], images: dict) -> _Rat:
    """The payload `r` with the variables of `mapping` replaced: numerator
    over denominator, each a sum of terms, each term its coefficient times
    its atoms' images' powers.  `images` caches the payload of each atom's
    image."""
    num = _p_subst(r.num, mapping, images)
    if r.den is _ONE_POLY:
        return num
    return _rat_div(num, _p_subst(r.den, mapping, images))


def _p_subst(p: tuple, mapping: Mapping[str, Expr], images: dict) -> _Rat:
    acc = None
    cp, cq, terms = p
    for mono, c in terms.items():
        unit = c == 1 and cp == 1 and cq == 1 and mono
        term = None if unit else _Rat(_p_const(c * cp, cq), _ONE_POLY)
        for a, n in mono:
            image = images.get(a)
            if image is None:
                image = images[a] = _atom_subst(a, mapping, images)
            factor = image if n == 1 else _rat_pow(image, n)
            term = factor if term is None else _rat_mul(term, factor)
        acc = term if acc is None else _rat_add(acc, term)
    return _RAT_ZERO if acc is None else acc


def _atom_subst(a: tuple, mapping: Mapping[str, Expr], images: dict) -> _Rat:
    if mapping.keys().isdisjoint(_atom_vars(a)):
        return _rat_atom(a)
    if a[0] == "v":
        return mapping[a[1]]._rat
    return _func_rat(a[1], tuple(_rat_to_expr(_rat_subst(x._rat, mapping, images)) for x in _ATOM_ARGS[a]))


def free_vars(e: Expr) -> set[str]:
    return set(_rat_vars(e._rat))


def _rat_vars(r: _Rat) -> frozenset:
    """Names of the variables of a payload, those in its atoms' arguments
    included: the union over its distinct atom keys, cached on `r`."""
    names = r.vars
    if names is None:
        powers = set().union(*r.num[2], *r.den[2])  # the distinct (atom, exponent) pairs
        atoms = {a for a, _ in powers}
        names = r.vars = frozenset().union(*map(_atom_vars, atoms))
        r.only_vars = all(a[0] == "v" for a in atoms)
    return names


def _diff_vars(e: Expr, names):
    """The members of the collection `names` by which a canonical `e` is
    to be differentiated: the variables of `e` when all its atoms are
    variables (its derivative by any other is zero), else all of `names`,
    so that an atom derivative that cannot be formed (ln(0)) raises as in
    `diff`."""
    r = e._rat
    held = _rat_vars(r)
    return held if r.only_vars else names


# atom key -> names of the variables in the atom
_ATOM_VARS: dict[tuple, frozenset] = {}


def _atom_vars(a: tuple) -> frozenset:
    names = _ATOM_VARS.get(a)
    if names is None:
        if a[0] == "v":
            names = frozenset((a[1],))
        else:
            names = frozenset().union(*(_rat_vars(x._rat) for x in _ATOM_ARGS[a]))
        _ATOM_VARS[a] = names
    return names


def numer_denom(e: Expr) -> tuple[Expr, Expr]:
    """Numerator and denominator of `e`, each a polynomial; the
    denominator is ONE for a polynomial."""
    rat = e._rat
    if rat.den is _ONE_POLY:
        return e, ONE
    return _rat_to_expr(_Rat(rat.num, _ONE_POLY)), _rat_to_expr(_Rat(rat.den, _ONE_POLY))


def constant_ratio(a: Expr, b: Expr) -> Optional[Fraction]:
    """The constant c != 0 with a = c * b, or None: payloads in lowest
    terms with monic denominators have one when their denominators are
    equal and their primitive numerators are equal up to sign, and c is
    that sign times the ratio of the numerators' contents."""
    (ap, aq, A), (bp, bq, B) = a._rat.num, b._rat.num
    if not A or len(A) != len(B) or a._rat.den != b._rat.den:
        return None
    mono, c = next(iter(A.items()))
    sign = 1 if B.get(mono) == c else -1
    if any(B.get(m) != sign * c for m, c in A.items()):
        return None
    return Fraction(sign * ap * bq, aq * bp)


def poly_terms(e: Expr) -> Optional[list[tuple[Fraction, tuple[tuple[Expr, int], ...]]]]:
    """Terms of `e` in ascending monomial order (total degree, then atom
    keys) as (coefficient, ((atom, exponent), ...)), or None when `e` has
    a nontrivial denominator."""
    rat = e._rat
    if rat.den is not _ONE_POLY:
        return None
    p, q, terms = rat.num
    return [
        (Fraction(p * c, q), tuple((_ATOM_REGISTRY[a], x) for a, x in mono))
        for mono, c in sorted(terms.items(), key=_mono_order)
    ]


def poly_coeffs(e: Expr) -> Optional[list[Fraction]]:
    """The coefficients of `poly_terms(e)`, or None."""
    terms = poly_terms(e)
    return None if terms is None else [c for c, _ in terms]


def poly_content(exprs: Iterable[Expr]) -> Optional[Fraction]:
    """The positive rational gcd of all coefficients of `exprs` (the
    rational gcd of their contents), or None when one of them has a
    nontrivial denominator or all of them are zero."""
    p, q = 0, 1
    for e in exprs:
        rat = e._rat
        if rat.den is not _ONE_POLY:
            return None
        p, q = gcd(p, rat.num[0]), lcm(q, rat.num[1])
    return Fraction(p, q) if p else None


def opaque_atoms(e: Expr) -> dict[tuple, Expr]:
    """Distinct opaque function atoms of `e`, keyed, in order of first
    appearance in its text (numerator then denominator, terms in
    descending order, each atom before the atoms nested in its arguments),
    followed by the atoms found only inside the arguments of sin, cos,
    exp and ln (walked the same way, one nesting level at a time)."""
    out: dict[tuple, Expr] = {}
    known_args: list[Expr] = []
    _walk_opaque(e._rat, out, known_args)
    for a in known_args:  # grows while walked
        _walk_opaque(a._rat, out, known_args)
    return out


def _walk_opaque(rat: _Rat, out: dict, known_args: list):
    # numerator then denominator, terms descending, the atoms of a term in
    # key order
    for p in (rat.num,) if rat.den is _ONE_POLY else (rat.num, rat.den):
        terms = [t for t in p[2].items() if any(a[0] == "f" for a, _ in t[0])]
        if len(terms) > 1:
            terms.sort(key=_mono_order, reverse=True)
        for mono, _ in terms:
            for a, _ in mono:
                if a[0] == "f" and a not in out:
                    if a[1] in KNOWN_FUNCS:
                        known_args.extend(_ATOM_ARGS[a])
                        continue
                    out[a] = _ATOM_REGISTRY[a]
                    nested, known = _atom_nested(a)
                    for b in nested:
                        if b not in out:
                            out[b] = _ATOM_REGISTRY[b]
                    known_args.extend(known)


# opaque atom key -> (keys of the opaque atoms nested in its arguments, in
# walk order, and the arguments of the known functions met on the way)
_ATOM_NESTED: dict[tuple, tuple[tuple, tuple]] = {}


def _atom_nested(a: tuple) -> tuple[tuple, tuple]:
    # a walk of the arguments alone: the atoms a shared walk adds there are
    # these, less the ones it holds already, whose nested atoms it holds too
    nested = _ATOM_NESTED.get(a)
    if nested is None:
        out: dict[tuple, Expr] = {}
        known: list[Expr] = []
        for x in _ATOM_ARGS[a]:
            _walk_opaque(x._rat, out, known)
        nested = _ATOM_NESTED[a] = (tuple(out), tuple(known))
    return nested


# ---------------------------------------------------------------------------
# evaluation: compile once, evaluate at many points


def compile_expr(e: Expr, symbols: Sequence) -> Callable[[Sequence[float]], float]:
    """Float evaluator of `e`, compiled once from its payload.

    The returned function takes the values of `symbols` in order, either
    floats or equal-length 1-D float arrays (columns, one row per point);
    on columns it returns an array, or a float when the form is constant.
    The arithmetic is in the order of the text: numerator over
    denominator, terms in descending monomial order summed by `math.fsum`,
    each term its coefficient and then its atoms' powers left to right,
    `((1.0 * c) * a) * b`.  One set of closures serves floats and columns,
    and a column row gets the bits of the scalar evaluation: products and
    quotients are elementwise, and where the two differ a closure branches
    on its input's class (`math.fsum`, powers and sin/cos/exp/ln through
    Python floats per row, the 1e-12 check over the whole column).  A
    Python float takes the scalar branch at once; only another class is
    looked up as a numpy array, in `sys.modules`, so evaluating floats
    never imports numpy.  On columns the evaluator ignores numpy's float
    warnings, as Python floats overflow to inf silently too.  A
    variable or atom missing from `symbols` raises UnboundVariableError or
    UnboundFunctionError when it is reached.  Columns raise where some row
    would, with some failing row's error: `flows._rk4` and
    `linalg.sample_stack`, which evaluate on columns, re-run the rows one
    by one to name the first.
    """
    f = _compiled(e._rat, tuple(symbols))

    def evaluator(v):
        if v and v[0].__class__ is not float:
            np = _numpy_of(v[0])
            if np is not None:
                with np.errstate(all="ignore"):  # Python floats overflow to inf silently too
                    return f(v)
        return f(v)

    return evaluator


def _numpy_of(x):
    """numpy, when `x` is one of its arrays (a column), else None.  Only
    code that imported numpy can pass an array, so this module does not
    import it but looks it up in `sys.modules`."""
    np = sys.modules.get("numpy")
    return np if np is not None and x.__class__ is np.ndarray else None


def _compiled(rat: _Rat, symbols: tuple, slots: Optional[Mapping] = None) -> Callable:
    """The closure of `rat` over `symbols`, compiled on the first call for
    that symbol tuple and kept on the payload (`slots` maps each symbol to
    its position)."""
    memo = rat.evals
    if memo is None:
        memo = rat.evals = {}
    f = memo.get(symbols)
    if f is None:
        if slots is None:
            slots = {s: i for i, s in enumerate(symbols)}
        f = memo[symbols] = _compile(rat, symbols, slots)
    return f


def _compile(rat: _Rat, symbols: tuple, slots: Mapping) -> Callable:
    """Closure of a payload over the values of `slots`: its numerator,
    over its denominator when it has one."""
    atoms: dict = {}  # atom key -> closure, shared by the terms
    num = _compile_poly(rat.num, symbols, slots, atoms)
    if rat.den is _ONE_POLY:
        return num
    den = _compile_poly(rat.den, symbols, slots, atoms)

    def quotient(v):
        d = den(v)
        if d.__class__ is float or _numpy_of(d) is None:
            near = abs(d) <= EVAL_DIV_TOLERANCE
        else:
            near = (abs(d) <= EVAL_DIV_TOLERANCE).any()
        if near:
            raise DivisionByZeroError("denominator within 1e-12 of zero")
        return num(v) / d

    return quotient


def _compile_poly(poly: tuple, symbols: tuple, slots: Mapping, atoms: dict) -> Callable:
    p, q, coeffs = poly
    terms = []
    for mono, c in sorted(coeffs.items(), key=_mono_order, reverse=True):
        factors = []
        for a, n in mono:
            f = atoms.get(a)
            if f is None:
                f = atoms[a] = _compile_atom(a, symbols, slots)
            factors.append(f if n == 1 else _per_row(f, lambda t, n=n: t**n))
        terms.append(_product(p * c / q, factors))  # rounded as float(Fraction) is
    if len(terms) <= 1:
        return terms[0] if terms else lambda v: 0.0

    def total(v):
        xs = [t(v) for t in terms]
        for x in xs:
            if x.__class__ is not float and (np := _numpy_of(x)) is not None:  # fsum per row, floats broadcast
                cols = [y.tolist() if y.__class__ is np.ndarray else [y] * len(x) for y in xs]
                return np.array(list(map(math.fsum, zip(*cols))))
        return math.fsum(xs)

    return total


def _product(c: float, factors: list) -> Callable:
    """`((1.0 * c) * a) * b`, which is `(c * a) * b`."""
    if not factors:
        return lambda v: c
    if c == 1.0 and len(factors) == 1:
        return factors[0]

    def product(v):
        out = c
        for f in factors:
            out *= f(v)
        return out

    return product


def _per_row(f: Callable, g: Callable[[float], float]) -> Callable:
    """g of the value of f, through Python floats row by row on a column."""

    def apply(v):
        x = f(v)
        if x.__class__ is not float and (np := _numpy_of(x)) is not None:
            return np.array([g(t) for t in x.tolist()])
        return g(x)

    return apply


def _compile_atom(a: tuple, symbols: tuple, slots: Mapping) -> Callable:
    name = a[1]
    if a[0] == "v":
        i, argv = slots.get(name), []
    else:
        args = _ATOM_ARGS[a]
        if name in KNOWN_FUNCS:
            return _per_row(_compiled(args[0]._rat, symbols, slots), KNOWN_FUNCS[name])
        # the arguments' own errors come first; a product of bound variables cannot raise
        i = slots.get(a)
        argv = [_compiled(x._rat, symbols, slots) for x in args if not _bound_product(x, slots)]
    if i is not None and not argv:
        return lambda v: v[i]

    def atom(v):
        for f in argv:
            f(v)
        if i is None:
            if a[0] == "v":
                raise UnboundVariableError(f"variable {name!r} is not assigned")
            raise UnboundFunctionError(f"no interpretation for function {name!r}")
        return v[i]

    return atom


def _bound_product(x: Expr, slots: Mapping) -> bool:
    """Whether `x` is one term in variables of `slots` to the first
    power."""
    rat = x._rat
    terms = rat.num[2]
    return rat.den is _ONE_POLY and len(terms) <= 1 and all(
        a[0] == "v" and a[1] in slots and n == 1 for mono in terms for a, n in mono
    )


# ---------------------------------------------------------------------------
# seeded sampling


def _box_bounds(box, name: str) -> tuple[float, float]:
    if box is None:
        return DEFAULT_BOX
    if isinstance(box, dict):
        lo, hi = box.get(name, DEFAULT_BOX)
    else:
        lo, hi = box
    return float(lo), float(hi)


def sample_points(
    exprs: Iterable[Expr],
    box=None,
    seed: int = DEFAULT_SEED,
    count: int = SAMPLE_BUDGET,
    center: bool = False,
) -> tuple[tuple, Iterator[tuple[float, ...]]]:
    """Seeded evaluation points for `exprs`: returns (symbols, points).

    `symbols` are the free variable names of the expressions, sorted,
    then the registry keys of their opaque atoms (nested atoms included),
    sorted.  Each of the `count` points is
    a tuple aligned with `symbols`: variables uniform in the box, atoms
    uniform in the default box (a generic-coefficient draw).  With
    `center`, the first point puts the variables at the box center (its
    atoms are still drawn).  Points are drawn lazily from one
    `random.Random(seed)`.
    """
    exprs = list(exprs)
    names = sorted(set().union(*(free_vars(e) for e in exprs)))
    atoms = sorted(set().union(*(opaque_atoms(e) for e in exprs)))
    bounds = [_box_bounds(box, n) for n in names]
    return tuple(names + atoms), _draw(bounds, len(atoms), seed, count, center)


def _draw(bounds, n_atoms: int, seed: int, count: int, center: bool):
    # `random.uniform(lo, hi)` inlined: lo + (hi - lo) * random(), the same bits
    draw = random.Random(seed).random
    lo_atom, width_atom = DEFAULT_BOX[0], DEFAULT_BOX[1] - DEFAULT_BOX[0]
    for k in range(count):
        if center and k == 0:
            vals = [(lo + hi) / 2.0 for lo, hi in bounds]
        else:
            vals = [lo + (hi - lo) * draw() for lo, hi in bounds]
        vals += [lo_atom + width_atom * draw() for _ in range(n_atoms)]
        yield tuple(vals)


def point_label(symbols: Sequence, values: Sequence[float]) -> dict[str, float]:
    """Printable form of a point: variables by name, atoms by their text."""
    return {
        (s if isinstance(s, str) else str(_ATOM_REGISTRY[s])): v
        for s, v in zip(symbols, values)
    }


# ---------------------------------------------------------------------------
# zero testing by canonicalization plus seeded sampling


@dataclass(frozen=True)
class ZeroTest:
    """Tri-state zero verdict: 'zero', 'nonzero' (with witness), 'unknown'."""

    verdict: str
    witness: Optional[dict] = None
    witness_value: Optional[float] = None
    seed: int = DEFAULT_SEED
    threshold: float = ZERO_THRESHOLD

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.verdict == "nonzero"


def is_zero(
    e: Expr,
    box=None,
    seed: int = DEFAULT_SEED,
    samples: int = SAMPLE_BUDGET,
    threshold: float = ZERO_THRESHOLD,
) -> ZeroTest:
    """Zero iff the numerator is the zero polynomial; otherwise sample for
    a witness.  No witness within the budget yields 'unknown'
    (never silently 'zero').  A nonzero constant takes the same value at
    every point, so its float decides it without a draw: 'nonzero' with
    the empty witness when `samples` > 0 and it exceeds `threshold`,
    else 'unknown'."""
    if e.is_const_zero():
        return ZeroTest("zero", seed=seed, threshold=threshold)
    c = e.const_value()
    if c is not None:  # every sample point gives this one value: no draw
        val = float(c)
        if samples > 0 and abs(val) > threshold:
            return ZeroTest("nonzero", {}, val, seed, threshold)
        return ZeroTest("unknown", seed=seed, threshold=threshold)
    symbols, points = sample_points([e], box=box, seed=seed, count=samples)
    f = compile_expr(e, symbols)
    for vals in points:
        try:
            val = f(vals)
        except SINGULAR_POINT_ERRORS:
            continue
        if abs(val) > threshold:
            return ZeroTest("nonzero", point_label(symbols, vals), val, seed, threshold)
    return ZeroTest("unknown", seed=seed, threshold=threshold)


# ---------------------------------------------------------------------------
# printing


# The printer writes a payload numerator over denominator, terms in
# descending `_mono_order`, each term its coefficient, then its atoms and
# their powers, in an operand position of binding `prec` (0 alone or as an
# argument, 10 summand, 21 factor, 30 side of a quotient, 41 power base);
# each coefficient is a reduced int pair.


# atom key -> the text of the registry atom (its name, or its call)
_ATOM_TEXT: dict[tuple, str] = {}


def _atom_text(a: tuple) -> str:
    text = _ATOM_TEXT.get(a)
    if text is None:
        if a[0] == "v":
            text = a[1]
        else:
            text = f"{a[1]}({', '.join(_rat_format(x._rat, 0) for x in _ATOM_ARGS[a])})"
        _ATOM_TEXT[a] = text
    return text


def _rat_format(rat: _Rat, prec: int) -> str:
    if rat.den is _ONE_POLY:
        return _poly_format(rat.num, prec)
    out = f"{_poly_format(rat.num, 30)}/{_poly_format(rat.den, 30)}"
    return f"({out})" if prec > 20 else out


def _poly_format(poly: tuple, prec: int) -> str:
    p, q, terms = poly
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        return _term_format(mono, c, p, q, prec)
    if not terms:
        return "0"
    first, *rest = [
        _term_format(mono, c, p, q, 10) for mono, c in sorted(terms.items(), key=_mono_order, reverse=True)
    ]
    out = first + "".join(f" - {s[1:]}" if s[0] == "-" else f" + {s}" for s in rest)
    return f"({out})" if prec > 10 else out


def _term_format(mono: tuple, c: int, p: int, q: int, prec: int) -> str:
    """The term of coefficient p/q * c (p/q in lowest terms, q > 0)."""
    g = gcd(c, q)
    n, d = p * (c // g), q // g
    if not mono:
        s = str(n) if d == 1 else f"{n}/{d}"
        return f"({s})" if (n < 0 and prec > 10) or (d != 1 and prec >= 40) else s
    out = "*".join(_atom_text(a) if e == 1 else f"{_atom_text(a)}^{e}" for a, e in mono)
    if d != 1 or (n != 1 and n != -1):
        out = f"{n}*{out}" if d == 1 else f"{n}/{d}*{out}"
    elif n == -1:
        out = f"-{out}"
    elif len(mono) == 1:  # one atom or one power: no product to bracket
        return out
    return f"({out})" if prec > 20 else out


# ---------------------------------------------------------------------------
# parsing


# One match per token: a word (`\w+`: the characters `str.isalnum` accepts,
# and "_"), an operator or bracket, or any other character; the whitespace
# before it (`\s`: `str.isspace`) is skipped.  A word is an identifier when
# it starts with a letter (`str.isalpha`); one that starts with a decimal
# digit (`str.isdecimal`, the digits `int` reads) is split where those
# digits end when the parser consumes it, unless a digit follows them
# that is not decimal (a superscript): that one is an unexpected
# character.  Any other first character, such as a superscript digit, is
# an unexpected character.
_TOKEN = re.compile(r"\s*(\w+|[-+*/^(),]|\S)")
_PUNCT = frozenset("+-*/^(),")

def _int_leaf(v: int) -> Expr:
    leaf = _INT_LEAVES.get(v)
    if leaf is None:
        leaf = _coerce(v)
        if v < _INT_LEAF_LIMIT:
            _INT_LEAVES[v] = leaf
    return leaf


class _Parser:
    """Recursive descent over the token list of one text, for
    +,- < *,/ < unary - < ^ (integer exponents).  Each rule returns a
    payload, and each operator combines its operands' payloads as it is
    met, left to right, so a parse builds one node, at the end.  A
    variable is its registry atom's payload, or the payload `names` binds
    to it (an exponent binds no names); a small integer is the payload of
    a shared node.  The end of input is the empty token.  A ParseError
    carries the position of a token's first character (an unexpected
    character, trailing input, a power too large to expand) or the
    position just past the token consumed last."""

    __slots__ = ("text", "toks", "i", "names")

    def __init__(self, text: str, names: Mapping[str, Expr]):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0
        self.names = names

    def span(self, i: int) -> tuple[int, int]:
        """The start and the end of token `i` in the text."""
        text, pos = self.text, 0
        for tok in self.toks[: i + 1]:
            while text[pos : pos + 1].isspace():
                pos += 1
            start = pos
            pos += len(tok)
        return start, pos

    def error(self, message: str, i: int, after: bool = True):
        """Raise at the end of token `i`, or at its start."""
        start, end = self.span(i)
        raise ParseError(message, end if after else start, self.text)

    def take(self) -> tuple:
        """Consume one token: (kind, value), the kind being "int",
        "ident", the operator itself, or "" at the end of input."""
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok in _PUNCT or not tok:
            return tok, tok
        c = tok[0]
        if c.isalpha():
            return "ident", tok
        if c.isdecimal():
            if not tok.isdecimal():
                n = next(k for k, ch in enumerate(tok) if not ch.isdecimal())
                if tok[n].isdigit():
                    raise ParseError(f"unexpected character {tok[n]!r}", self.span(i)[0] + n, self.text)
                self.toks[i : i + 1] = tok[:n], tok[n:]
                tok = tok[:n]
            return "int", int(tok)
        self.error(f"unexpected character {c!r}", i, after=False)

    def close(self, message: str) -> None:
        if self.toks[self.i] == ")":
            self.i += 1
        else:
            self.take()
            self.error(message, self.i - 1)

    def parse(self) -> _Rat:
        r = self.add()
        if self.toks[self.i]:
            self.error("trailing input", self.i, after=False)
        return r

    def add(self) -> _Rat:
        toks = self.toks
        r = self.mul()
        while True:
            t = toks[self.i]
            if t == "+":
                self.i += 1
                r = _rat_add(r, self.mul())
            elif t == "-":
                self.i += 1
                r = _rat_add(r, _rat_neg(self.mul()))
            else:
                return r

    def mul(self) -> _Rat:
        toks = self.toks
        r = self.unary()
        while True:
            t = toks[self.i]
            if t == "*":
                self.i += 1
                r = _rat_mul(r, self.unary())
            elif t == "/":
                self.i += 1
                r = _rat_div(r, self.unary())
            else:
                return r

    def unary(self) -> _Rat:
        toks = self.toks
        negations = 0
        while toks[self.i] == "-":
            self.i += 1
            negations += 1
        r = self.atom()
        if toks[self.i] == "^":
            self.i += 1
            at = self.i
            sign = 1
            if toks[self.i] == "-":
                self.i += 1
                sign = -1
            kind, val = self.take()
            if kind == "int":
                n = sign * val
            elif kind == "(":
                names, self.names = self.names, {}
                inner = self.add()
                self.names = names
                self.close("expected ')' in exponent")
                c = _rat_const(inner)
                if c is None or c.denominator != 1:
                    self.error("exponent must be an integer", self.i - 1)
                n = sign * int(c)
            else:
                self.error("exponent must be an integer", self.i - 1)
            try:
                r = _rat_pow_bounded(r, n)
            except ExpansionLimitError as exc:
                self.error(str(exc), at, after=False)
        return _rat_neg(r) if negations % 2 else r

    def atom(self) -> _Rat:
        kind, val = self.take()
        if kind == "int":
            return _int_leaf(val)._rat
        if kind == "ident":
            toks = self.toks
            if toks[self.i] != "(":
                bound = self.names.get(val)
                return _atom_node(("v", val))._rat if bound is None else bound._rat
            self.i += 1
            args = [self.add()]
            while toks[self.i] == ",":
                self.i += 1
                args.append(self.add())
            self.close("expected ')' after function arguments")
            if val in KNOWN_FUNCS and len(args) != 1:
                self.error(f"{val} takes exactly one argument", self.i - 1)
            return _func_rat(val, tuple(map(_rat_to_expr, args)))
        if kind == "(":
            r = self.add()
            self.close("expected ')'")
            return r
        self.error(f"unexpected token {val!r}" if kind else "unexpected end of input", self.i - 1)


def parse(text: str, names: Optional[Mapping[str, Expr]] = None) -> Expr:
    """Parse the infix expression grammar used throughout file formats.
    `names` binds identifiers to expressions as they are read: the result
    is that of `subst(parse(text), names)`, except that an exponent binds
    no names."""
    return _rat_to_expr(_Parser(text, names or {}).parse())
