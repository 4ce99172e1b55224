"""Exact symbolic scalar arithmetic.

Expressions are immutable trees over rational constants, named variables,
the four field operations, integer powers, and function atoms.  The known
unary functions sin, cos, exp, ln carry differentiation rules; any other
function name is an opaque atom (used for generic coefficient functions
such as B11(x1, x2, z1)) whose derivatives are fresh opaque atoms.

Canonicalization flattens an expression to a quotient of multivariate
polynomials over the rationals, with function atoms treated as opaque
generators.  The quotient is reduced by monomial content only and the
denominator is normalized to leading coefficient one; the full polynomial
gcd is still missing, so canonical forms are unique only up to it.
Coefficient arithmetic is exact: `int` when integral, `Fraction`
otherwise, and every constant of an `Expr` is a `Fraction`.  A canonical
node is its quotient, the payload: `canon`, `diff` and `subst` return
nodes that hold only the payload, and a node's tree is built from it on
the first structural read (`op`/`args`: printing, `key`/`hash`, raw-tree
walks).  Zero and unit tests, `==` between canonical nodes,
`const_value`, `free_vars`, `opaque_atoms`, `numer_denom`, `poly_terms`
and `compile_expr` answer from the payload, and `+` and `*` keep a
canonical operand whole (they splice only raw sums and products).  The
exterior calculus of `forms` computes on payloads directly (`_rat_mul`,
`_rat_neg`, and `_rat_add` in the order of the raw sum it stands for),
so a chain of form operations neither builds nor re-expands a
coefficient tree.
`diff` of a canonical form works on its payload (the quotient rule over
polynomial derivatives, each atom's derivative canonicalized once and
cached); a raw tree, or a form with an atom whose derivative has a
denominator (ln, atoms over rational arguments), is differentiated as a
product-rule tree and canonicalized, because without the gcd the
canonical quotient of such a derivative depends on the order the tree
sums in.  For the same reason `subst` of a canonical form combines the
images of its atoms in the order of its tree.  Floats appear only in
evaluation and sampling, which this module owns for the whole package:
`compile_expr` turns the payload of a canonical form into a float
function once (the one evaluator: one set of closures, on floats or on
columns of floats with the same bits per row), and `sample_points` is
the one seeded sampler of evaluation points, which are tuples of
floats aligned with a symbol list of variable names and opaque-atom keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DivisionByZeroError,
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
# expression trees


class Expr:
    """Immutable scalar expression tree.

    `op` is one of: const, var, add, mul, pow, div, func.  Use the module
    constructors (`num`, `var`, `sin`, ..., `func`) and the overloaded
    operators; do not build nodes by hand.

    A canonical node (the output of `canon`, `diff`, `subst`) is its
    payload, the `_Rat` quotient: `is_const_zero`, `const_value`, `==`
    between canonical nodes, `free_vars`, `opaque_atoms`, `compile_expr`
    and the arithmetic read that.  Its `op` and `args` stay unset until
    something reads them (printing, `key`/`hash`, the tree walks); the
    first read builds the tree from the payload, once.
    """

    # op, args: unset on a canonical node until its tree is first read;
    # _rat: canonical nodes only
    __slots__ = ("op", "args", "_key", "_canon", "_rat")

    def __init__(self, op: str, args: tuple):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_canon", None)

    def __getattr__(self, name):
        # reached only for unset slots, so reads of built nodes pay nothing
        if (name == "op" or name == "args") and self._canon is self:
            _build_tree(self)
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- structural identity ------------------------------------------------

    def key(self) -> tuple:
        """Hashable, totally ordered structural encoding of the tree."""
        k = self._key
        if k is None:
            op = self.op
            if op == "const":
                c = self.args[0]
                k = ("c", (c.numerator, c.denominator))
            elif op == "var":
                k = ("v", self.args[0])
            elif op == "func":
                k = ("f", self.args[0], tuple(a.key() for a in self.args[1:]))
            elif op == "pow":
                k = ("p", self.args[0].key(), self.args[1])
            else:
                tag = {"add": "a", "mul": "m", "div": "d"}[op]
                k = (tag, tuple(a.key() for a in self.args))
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        if self._canon is self and other._canon is other:
            # a canonical tree and its payload determine each other
            a, b = self._rat, other._rat
            return a.num == b.num and a.den == b.den
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return _add2(self, _coerce(other))

    def __radd__(self, other):
        return _add2(_coerce(other), self)

    def __sub__(self, other):
        return _add2(self, _neg(_coerce(other)))

    def __rsub__(self, other):
        return _add2(_coerce(other), _neg(self))

    def __mul__(self, other):
        return _mul2(self, _coerce(other))

    def __rmul__(self, other):
        return _mul2(_coerce(other), self)

    def __truediv__(self, other):
        return Expr("div", (self, _coerce(other)))

    def __rtruediv__(self, other):
        return Expr("div", (_coerce(other), self))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        return Expr("pow", (self, n))

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    # -- conveniences -------------------------------------------------------

    def canon(self) -> "Expr":
        return canon(self)

    def diff(self, v) -> "Expr":
        return diff(self, v)

    def is_const_zero(self) -> bool:
        if self._canon is self:
            return not self._rat.num
        return self.op == "const" and self.args[0] == 0

    def const_value(self) -> Optional[Fraction]:
        """Fraction value if the canonical form is a constant, else None."""
        rat = _canon(self)._rat
        if not rat.num:
            return Fraction(0)
        if rat.den is _ONE_POLY and len(rat.num) == 1 and _EMPTY_MONO in rat.num:
            return Fraction(rat.num[_EMPTY_MONO])
        return None

    def __str__(self):
        return _format(self, 0)

    def __repr__(self):
        return f"Expr({_format(self, 0)!r})"


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr("const", (Fraction(x),))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _neg(e: Expr) -> Expr:
    return _mul2(_coerce(-1), e)


def _operands(e: Expr, op: str) -> tuple:
    # a canonical operand stays whole, so _to_rat reads its cached payload
    return e.args if e._canon is not e and e.op == op else (e,)


def _is_one(e: Expr) -> bool:
    if e._canon is e:
        rat = e._rat
        return rat.den is _ONE_POLY and rat.num == _ONE_POLY
    return e.op == "const" and e.args[0] == 1


def _add2(a: Expr, b: Expr) -> Expr:
    if a.is_const_zero():
        return b
    if b.is_const_zero():
        return a
    return Expr("add", _operands(a, "add") + _operands(b, "add"))


def _mul2(a: Expr, b: Expr) -> Expr:
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Expr("mul", _operands(a, "mul") + _operands(b, "mul"))


ZERO = Expr("const", (Fraction(0),))
ONE = Expr("const", (Fraction(1),))


def num(value) -> Expr:
    """Exact rational constant."""
    return Expr("const", (Fraction(value),))


def var(name: str) -> Expr:
    # identifiers: letter first, then letters/digits/underscores (the
    # underscore admits jet symbols like Dz1_x2)
    if not name or not name[0].isalpha() or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid variable name {name!r}")
    return Expr("var", (name,))


def variables(names: str) -> list[Expr]:
    """Space-separated batch of variables: ``x, y = variables("x y")``."""
    return [var(n) for n in names.split()]


def sin(e) -> Expr:
    return Expr("func", ("sin", _coerce(e)))


def cos(e) -> Expr:
    return Expr("func", ("cos", _coerce(e)))


def exp(e) -> Expr:
    return Expr("func", ("exp", _coerce(e)))


def ln(e) -> Expr:
    return Expr("func", ("ln", _coerce(e)))


def func(name: str, *args) -> Expr:
    """Opaque function atom; derivatives become fresh atoms ``name@i``."""
    if name in KNOWN_FUNCS and len(args) != 1:
        raise ValueError(f"{name} takes exactly one argument")
    return Expr("func", (name,) + tuple(_coerce(a) for a in args))


# ---------------------------------------------------------------------------
# canonical form: polynomial quotient over atoms
#
# Poly: dict mapping monomial -> coefficient (int when integral, else
# Fraction), monomial = sorted tuple of (atom_key, exponent).  Atom keys
# index _ATOM_REGISTRY which holds the canonical Expr of each atom (a var
# or a func node with canonical args).  Payloads are shared and never
# mutated; their dict order depends on how they were built, so every
# consumer sorts or walks the canonical tree.

_ATOM_REGISTRY: dict[tuple, Expr] = {}

_EMPTY_MONO: tuple = ()
_ONE_POLY = {_EMPTY_MONO: 1}


def _coeff(c):
    """Payload coefficient type: int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s if s.__class__ is int else _coeff(s)
        else:
            del out[mono]
    return out


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


def _p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s if s.__class__ is int else _coeff(s)
            else:
                del out[m]
    return out


def _p_pow(a: dict, n: int) -> dict:
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


def _p_scale(p: dict, c: Fraction) -> dict:
    if c == 1:
        return p
    return {m: _coeff(v * c) for m, v in p.items()}


def _content_mono(polys: Iterable[dict]) -> tuple:
    """Largest monomial dividing every monomial of every polynomial."""
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


def _p_divide_mono(p: dict, by: tuple) -> dict:
    if not by:
        return p
    return {_mono_divide(m, by): c for m, c in p.items()}


class _Rat:
    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        self.num = num
        self.den = den


_RAT_ZERO = _Rat({}, _ONE_POLY)
_RAT_ONE = _Rat(_ONE_POLY, _ONE_POLY)


def _mark(node: Expr, rat: _Rat) -> Expr:
    """Make `node` the canonical node of `rat`."""
    object.__setattr__(node, "_rat", rat)
    object.__setattr__(node, "_canon", node)
    return node


# the constants are their own canonical forms
_mark(ZERO, _RAT_ZERO)
_mark(ONE, _RAT_ONE)


def _rat_normalize(num: dict, den: dict) -> _Rat:
    if not den:
        raise DivisionByZeroError("denominator is identically zero")
    if not num:
        return _RAT_ZERO
    content = _content_mono([num, den])
    if content:
        num = _p_divide_mono(num, content)
        den = _p_divide_mono(den, content)
    lead = max(den.items(), key=_mono_order)[1]
    if lead != 1:
        inv = Fraction(1) / lead
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    if den == _ONE_POLY:
        den = _ONE_POLY
    return _Rat(num, den)


def _rat_add(a: _Rat, b: _Rat) -> _Rat:
    # every denominator 1 is the shared _ONE_POLY; with two of them
    # _rat_normalize is the identity (empty content, leading coefficient 1)
    if a.den is _ONE_POLY and b.den is _ONE_POLY:
        return _Rat(_p_add(a.num, b.num), _ONE_POLY)
    if a.den == b.den:
        return _rat_normalize(_p_add(a.num, b.num), a.den)
    return _rat_normalize(
        _p_add(_p_mul(a.num, b.den), _p_mul(b.num, a.den)), _p_mul(a.den, b.den)
    )


def _rat_neg(r: _Rat) -> _Rat:
    """-r: the numerator negated, the denominator kept (bit for bit
    `_rat_mul(r, -1)`, whose normalization is the identity here)."""
    return _Rat({m: -c for m, c in r.num.items()}, r.den)


def _rat_mul(a: _Rat, b: _Rat) -> _Rat:
    if a.den is _ONE_POLY and b.den is _ONE_POLY:
        return _Rat(_p_mul(a.num, b.num), _ONE_POLY)
    return _rat_normalize(_p_mul(a.num, b.num), _p_mul(a.den, b.den))


def _rat_div(a: _Rat, b: _Rat) -> _Rat:
    return _rat_normalize(_p_mul(a.num, b.den), _p_mul(a.den, b.num))


def _rat_pow(a: _Rat, n: int) -> _Rat:
    if n == 0:
        return _RAT_ONE
    if n < 0:
        return _rat_normalize(_p_pow(a.den, -n), _p_pow(a.num, -n))
    return _rat_normalize(_p_pow(a.num, n), _p_pow(a.den, n))


def _to_rat(e: Expr) -> _Rat:
    c = e._canon
    if c is not None:
        return c._rat
    op = e.op
    if op == "const":
        v = e.args[0]
        return _Rat({_EMPTY_MONO: _coeff(v)}, _ONE_POLY) if v else _RAT_ZERO
    if op == "var":
        key = ("v", e.args[0])
        _ATOM_REGISTRY.setdefault(key, e)
        return _Rat({((key, 1),): 1}, _ONE_POLY)
    if op == "func":
        name = e.args[0]
        cargs = tuple(canon(a) for a in e.args[1:])
        key = ("f", name, tuple(a.key() for a in cargs))
        if key not in _ATOM_REGISTRY:
            atom = _ATOM_REGISTRY[key] = Expr("func", (name,) + cargs)
            object.__setattr__(atom, "_key", key)
        return _Rat({((key, 1),): 1}, _ONE_POLY)
    if op == "add" or op == "mul":
        # the first operand stands for 0 + a or 1 * a, which normalize to a
        combine = _rat_add if op == "add" else _rat_mul
        args = e.args
        acc = _to_rat(args[0])
        for a in args[1:]:
            acc = combine(acc, _to_rat(a))
        return acc
    if op == "pow":
        return _rat_pow(_to_rat(e.args[0]), e.args[1])
    if op == "div":
        return _rat_div(_to_rat(e.args[0]), _to_rat(e.args[1]))
    raise AssertionError(f"unknown op {op}")


def _mono_to_expr(mono: tuple, coeff) -> Expr:
    factors: list[Expr] = []
    if coeff != 1 or not mono:
        factors.append(Expr("const", (Fraction(coeff),)))
    for a, e in mono:
        base = _ATOM_REGISTRY[a]
        factors.append(base if e == 1 else Expr("pow", (base, e)))
    if len(factors) == 1:
        return factors[0]
    return Expr("mul", tuple(factors))


def _p_to_expr(p: dict) -> Expr:
    if not p:
        return ZERO
    terms = sorted(p.items(), key=_mono_order, reverse=True)
    exprs = [_mono_to_expr(m, c) for m, c in terms]
    if len(exprs) == 1:
        return exprs[0]
    return Expr("add", tuple(exprs))


def canon(e: Expr) -> Expr:
    """Canonical expanded form; idempotent, exact, deterministic."""
    return _canon(e)


def _canon(e: Expr) -> Expr:
    # the payload is cached on the canonical output only (re-expanding a
    # canonical tree reproduces it); in-module readers enter here, so calls
    # of the public canon stay the canonicalizations callers ask for
    if e._canon is not None:
        return e._canon
    out = _rat_to_expr(_to_rat(e))
    object.__setattr__(e, "_canon", out)
    return out


def _rat_to_expr(rat: _Rat) -> Expr:
    """The canonical node of a payload: ZERO, ONE, the registry atom for a
    single atom with coefficient 1, else a node holding only the payload,
    whose tree `_build_tree` makes on its first structural read."""
    num = rat.num
    if rat.den is _ONE_POLY and len(num) <= 1:
        if not num:
            return ZERO
        ((mono, c),) = num.items()
        if c == 1:
            if not mono:
                return ONE
            if len(mono) == 1 and mono[0][1] == 1:
                atom = _ATOM_REGISTRY[mono[0][0]]
                return atom if atom._canon is atom else _mark(atom, rat)
    out = object.__new__(Expr)
    object.__setattr__(out, "_key", None)
    return _mark(out, rat)


def _build_tree(e: Expr) -> None:
    """Give a canonical node the tree of its payload: terms in descending
    `_mono_order`, numerator over denominator."""
    rat = e._rat
    tree = _p_to_expr(rat.num)
    if rat.den is not _ONE_POLY:
        tree = Expr("div", (tree, _p_to_expr(rat.den)))
    object.__setattr__(e, "op", tree.op)
    object.__setattr__(e, "args", tree.args)


# ---------------------------------------------------------------------------
# differentiation


# (atom key, variable) -> payload of the atom's canonical derivative
_ATOM_DIFF: dict[tuple, _Rat] = {}


def diff(e: Expr, v) -> Expr:
    """Partial derivative with respect to variable `v`, canonicalized.

    A canonical `e` is differentiated on its cached payload (N'D - ND'
    over D^2, normalized) when every atom derivative it meets is a
    polynomial; anything else goes through the product-rule tree `_diff`
    and `canon`.  Both give the same canonical form where the payload
    route is taken."""
    if isinstance(v, Expr):
        if v.op != "var":
            raise ValueError("can only differentiate by a variable")
        vname = v.args[0]
    else:
        vname = v
    if e._canon is e:
        rat = _rat_diff(e._rat, vname)
        if rat is not None:
            return _rat_to_expr(rat)
    # A raw input, or an atom derivative with a denominator (ln, atoms over
    # rational arguments): without a polynomial gcd the quotient canon
    # returns depends on the order the tree sums in, and only the tree of
    # _diff reproduces that order.
    return canon(_diff(e, vname))


def _rat_diff(r: _Rat, v: str) -> Optional[_Rat]:
    """Derivative of a payload by `v`, or None when some atom's derivative
    carries a denominator."""
    dn = _p_diff(r.num, v)
    if dn is None:
        return None
    if r.den is _ONE_POLY:
        return _Rat(dn, _ONE_POLY)
    dd = _p_diff(r.den, v)
    if dd is None:
        return None
    if not dn and not dd:
        return _RAT_ZERO
    return _rat_normalize(
        _p_add(_p_mul(dn, r.den), _p_scale(_p_mul(r.num, dd), -1)), _p_mul(r.den, r.den)
    )


def _p_diff(p: dict, v: str) -> Optional[dict]:
    """Derivative of a polynomial payload by `v`: each atom of each monomial
    lowered once, times its exponent and its derivative; None when some
    atom's derivative carries a denominator."""
    out: dict = {}
    vkey = ("v", v)
    for mono, c in p.items():
        for i, (a, n) in enumerate(mono):
            if a[0] == "v":
                if a != vkey:
                    continue
                da = _ONE_POLY
            else:
                d = _ATOM_DIFF.get((a, v))
                if d is None:
                    d = _ATOM_DIFF[a, v] = _canon(_diff(_ATOM_REGISTRY[a], v))._rat
                if d.den is not _ONE_POLY:
                    return None
                da = d.num
            rest = mono[:i] + ((a, n - 1),) + mono[i + 1 :] if n > 1 else mono[:i] + mono[i + 1 :]
            k = c * n
            for m, c2 in da.items():
                m = _mono_mul(rest, m)
                s = out.get(m, 0) + k * c2
                if s:
                    out[m] = s if s.__class__ is int else _coeff(s)
                else:
                    del out[m]
    return out


def _diff(e: Expr, v: str) -> Expr:
    op = e.op
    if op == "const":
        return ZERO
    if op == "var":
        return ONE if e.args[0] == v else ZERO
    if op == "add":
        return Expr("add", tuple(_diff(a, v) for a in e.args))
    if op == "mul":
        terms = []
        args = e.args
        for i in range(len(args)):
            factors = args[:i] + (_diff(args[i], v),) + args[i + 1 :]
            terms.append(Expr("mul", factors))
        return Expr("add", tuple(terms))
    if op == "pow":
        base, n = e.args
        if n == 0:
            return ZERO
        return Expr(
            "mul",
            (Expr("const", (Fraction(n),)), Expr("pow", (base, n - 1)), _diff(base, v)),
        )
    if op == "div":
        a, b = e.args
        return Expr(
            "div",
            (
                _add2(Expr("mul", (_diff(a, v), b)), _neg(Expr("mul", (a, _diff(b, v))))),
                Expr("pow", (b, 2)),
            ),
        )
    if op == "func":
        name = e.args[0]
        args = e.args[1:]
        if name == "sin":
            outer = cos(args[0])
        elif name == "cos":
            outer = _neg(sin(args[0]))
        elif name == "exp":
            outer = e
        elif name == "ln":
            outer = Expr("div", (ONE, args[0]))
        else:
            # opaque atom: formal partials name@i, one per argument slot
            terms = []
            for i, a in enumerate(args, start=1):
                da = _diff(a, v)
                if da.is_const_zero():
                    continue
                partial = Expr("func", (f"{name}@{i}",) + args)
                terms.append(Expr("mul", (partial, da)))
            if not terms:
                return ZERO
            return Expr("add", tuple(terms)) if len(terms) > 1 else terms[0]
        return Expr("mul", (outer, _diff(args[0], v)))
    raise AssertionError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# substitution and inspection


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (simultaneous), canonicalized."""
    mapping = {k: _coerce(v) for k, v in mapping.items()}
    return canon(_subst(e, mapping, {}))


def _subst(e: Expr, mapping: Mapping[str, Expr], images: dict) -> Expr:
    if e._canon is e:
        return _rat_to_expr(_rat_subst(e._rat, mapping, images))
    op = e.op
    if op == "const":
        return e
    if op == "var":
        return mapping.get(e.args[0], e)
    if op == "func":
        return Expr("func", (e.args[0],) + tuple(_subst(a, mapping, images) for a in e.args[1:]))
    if op == "pow":
        return Expr("pow", (_subst(e.args[0], mapping, images), e.args[1]))
    return Expr(op, tuple(_subst(a, mapping, images) for a in e.args))


def _rat_subst(r: _Rat, mapping: Mapping[str, Expr], images: dict) -> _Rat:
    """`_to_rat` of the substituted canonical tree of `r`, combined in that
    tree's order without building it (the order decides the quotient when
    denominators meet): numerator over denominator, terms descending, each
    term its coefficient times its atoms' powers.  `images` caches the
    payload of each atom's image."""
    num = _p_subst(r.num, mapping, images)
    if r.den is _ONE_POLY:
        return num
    return _rat_div(num, _p_subst(r.den, mapping, images))


def _p_subst(p: dict, mapping: Mapping[str, Expr], images: dict) -> _Rat:
    acc = None
    for mono, c in sorted(p.items(), key=_mono_order, reverse=True):
        term = _Rat({_EMPTY_MONO: c}, _ONE_POLY) if c != 1 or not mono else None
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
        return _Rat({((a, 1),): 1}, _ONE_POLY)
    if a[0] == "v":
        return _to_rat(mapping[a[1]])
    atom = _ATOM_REGISTRY[a]
    return _to_rat(Expr("func", (a[1],) + tuple(_subst(x, mapping, images) for x in atom.args[1:])))


def free_vars(e: Expr) -> set[str]:
    out: set[str] = set()
    _collect_vars(e, out)
    return out


def _collect_vars(e: Expr, out: set):
    if e._canon is e:
        rat = e._rat
        for p in (rat.num, rat.den):
            for mono in p:
                for a, _ in mono:
                    out |= _atom_vars(a)
        return
    op = e.op
    if op == "var":
        out.add(e.args[0])
    elif op == "func":
        for a in e.args[1:]:
            _collect_vars(a, out)
    elif op == "pow":
        _collect_vars(e.args[0], out)
    elif op in ("add", "mul", "div"):
        for a in e.args:
            _collect_vars(a, out)


# atom key -> names of the variables in the atom
_ATOM_VARS: dict[tuple, frozenset] = {}


def _atom_vars(a: tuple) -> frozenset:
    names = _ATOM_VARS.get(a)
    if names is None:
        if a[0] == "v":
            names = frozenset((a[1],))
        else:
            names = frozenset().union(*(free_vars(x) for x in _ATOM_REGISTRY[a].args[1:]))
        _ATOM_VARS[a] = names
    return names


def numer_denom(e: Expr) -> tuple[Expr, Expr]:
    """Numerator and denominator of the canonical form of `e`, each a
    canonical polynomial; the denominator is ONE for a polynomial."""
    c = _canon(e)
    rat = c._rat
    if rat.den is _ONE_POLY:
        return c, ONE
    return _rat_to_expr(_Rat(rat.num, _ONE_POLY)), _rat_to_expr(_Rat(rat.den, _ONE_POLY))


def poly_terms(e: Expr) -> Optional[list[tuple[Fraction, tuple[tuple[Expr, int], ...]]]]:
    """Terms of the canonical form in ascending monomial order (total
    degree, then atom keys) as (coefficient, ((atom, exponent), ...)), or
    None when the canonical form carries a nontrivial denominator."""
    rat = _canon(e)._rat
    if rat.den is not _ONE_POLY:
        return None
    return [
        (Fraction(c), tuple((_ATOM_REGISTRY[a], x) for a, x in mono))
        for mono, c in sorted(rat.num.items(), key=_mono_order)
    ]


def poly_coeffs(e: Expr) -> Optional[list[Fraction]]:
    """The coefficients of `poly_terms(e)`, or None."""
    terms = poly_terms(e)
    return None if terms is None else [c for c, _ in terms]


def opaque_atoms(e: Expr) -> dict[tuple, Expr]:
    """Distinct opaque function atoms of the canonical form, keyed, in
    order of first appearance in its tree (numerator then denominator,
    terms in order, each atom before the atoms nested in its arguments),
    followed by the atoms found only inside the arguments of sin, cos,
    exp and ln (walked the same way, one nesting level at a time)."""
    out: dict[tuple, Expr] = {}
    known_args: list[Expr] = []
    _walk_opaque(_canon(e)._rat, out, known_args)
    for a in known_args:  # grows while walked
        _walk_opaque(a._rat, out, known_args)
    return out


def _walk_opaque(rat: _Rat, out: dict, known_args: list):
    # the canonical tree's order without building it: numerator then
    # denominator, terms descending, the atoms of a term in key order
    for p in (rat.num,) if rat.den is _ONE_POLY else (rat.num, rat.den):
        terms = [t for t in p.items() if any(a[0] == "f" for a, _ in t[0])]
        if len(terms) > 1:
            terms.sort(key=_mono_order, reverse=True)
        for mono, _ in terms:
            for a, _ in mono:
                if a[0] == "f" and a not in out:
                    atom = _ATOM_REGISTRY[a]
                    if a[1] in KNOWN_FUNCS:
                        known_args.extend(atom.args[1:])
                        continue
                    out[a] = atom
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
        for x in _ATOM_REGISTRY[a].args[1:]:  # registry atoms have canonical arguments
            _walk_opaque(x._rat, out, known)
        nested = _ATOM_NESTED[a] = (tuple(out), tuple(known))
    return nested


# ---------------------------------------------------------------------------
# evaluation: compile once, evaluate at many points


def compile_expr(e: Expr, symbols: Sequence) -> Callable[[Sequence[float]], float]:
    """Float evaluator of the canonical form of `e`, compiled once from its
    payload (no tree is built).

    The returned function takes the values of `symbols` in order, either
    floats or equal-length 1-D float arrays (columns, one row per point);
    on columns it returns an array, or a float when the form is constant.
    The arithmetic is in the order of the canonical tree: numerator over
    denominator, terms in descending monomial order summed by `math.fsum`,
    each term its coefficient and then its atoms' powers left to right,
    `((1.0 * c) * a) * b`.  One set of closures serves floats and columns,
    and a column row gets the bits of the scalar evaluation: products and
    quotients are elementwise, and where the two differ a closure branches
    on its input's class (`math.fsum`, powers and sin/cos/exp/ln through
    Python floats per row, the 1e-12 check over the whole column).  A
    variable or atom missing from `symbols` raises UnboundVariableError or
    UnboundFunctionError when it is reached.  Columns raise where some row
    would, with some failing row's error: `flows._rk4` and
    `linalg.sample_stack`, which evaluate on columns, re-run the rows one
    by one to name the first.
    """
    f = _compile(canon(e), {s: i for i, s in enumerate(symbols)})

    def evaluator(v):
        if v and v[0].__class__ is np.ndarray:
            with np.errstate(all="ignore"):  # Python floats overflow to inf silently too
                return f(v)
        return f(v)

    return evaluator


def _compile(e: Expr, slots: Mapping) -> Callable:
    """Closure of the canonical `e` over the values of `slots`: its
    numerator, over its denominator when it has one."""
    rat, atoms = e._rat, {}  # atom key -> closure, shared by the terms
    num = _compile_poly(rat.num, slots, atoms)
    if rat.den is _ONE_POLY:
        return num
    den = _compile_poly(rat.den, slots, atoms)

    def quotient(v):
        d = den(v)
        if np.any(np.abs(d) <= EVAL_DIV_TOLERANCE) if d.__class__ is np.ndarray else abs(d) <= EVAL_DIV_TOLERANCE:
            raise DivisionByZeroError("denominator within 1e-12 of zero")
        return num(v) / d

    return quotient


def _compile_poly(p: dict, slots: Mapping, atoms: dict) -> Callable:
    terms = []
    for mono, c in sorted(p.items(), key=_mono_order, reverse=True):
        factors = []
        for a, n in mono:
            f = atoms.get(a)
            if f is None:
                f = atoms[a] = _compile_atom(a, slots)
            factors.append(f if n == 1 else _per_row(f, lambda t, n=n: t**n))
        terms.append(_product(float(c), factors))
    if len(terms) <= 1:
        return terms[0] if terms else lambda v: 0.0

    def total(v):
        xs = [t(v) for t in terms]
        for x in xs:
            if x.__class__ is np.ndarray:  # fsum per row, floats broadcast
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
        if x.__class__ is np.ndarray:
            return np.array([g(t) for t in x.tolist()])
        return g(x)

    return apply


def _compile_atom(a: tuple, slots: Mapping) -> Callable:
    name = a[1]
    if a[0] == "v":
        i, argv = slots.get(name), []
    else:
        args = _ATOM_REGISTRY[a].args[1:]  # registry atoms have canonical arguments
        if name in KNOWN_FUNCS:
            return _per_row(_compile(args[0], slots), KNOWN_FUNCS[name])
        # the arguments' own errors come first; a product of bound variables cannot raise
        i, argv = slots.get(a), [_compile(x, slots) for x in args if not _bound_product(x, slots)]
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
    """Whether the canonical `x` is one term in variables of `slots` to the
    first power."""
    rat = x._rat
    return rat.den is _ONE_POLY and len(rat.num) <= 1 and all(
        a[0] == "v" and a[1] in slots and n == 1 for mono in rat.num for a, n in mono
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

    `symbols` are the free variable names of the expressions as given,
    sorted, then the registry keys of the opaque atoms of their canonical
    forms (nested atoms included), sorted.  Each of the `count` points is
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
    rng = random.Random(seed)
    for k in range(count):
        if center and k == 0:
            vals = [(lo + hi) / 2.0 for lo, hi in bounds]
        else:
            vals = [rng.uniform(lo, hi) for lo, hi in bounds]
        vals += [rng.uniform(*DEFAULT_BOX) for _ in range(n_atoms)]
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
    """Zero iff the canonical numerator is the zero polynomial; otherwise
    sample for a witness.  No witness within the budget yields 'unknown'
    (never silently 'zero')."""
    if canon(e).is_const_zero():
        return ZeroTest("zero", seed=seed, threshold=threshold)
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


_PREC = {"add": 10, "mul": 20, "div": 20, "pow": 40, "const": 100, "var": 100, "func": 100}


def _format(e: Expr, parent_prec: int) -> str:
    op = e.op
    if op == "const":
        c = e.args[0]
        s = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if c < 0 and parent_prec > 10:
            return f"({s})"
        if c.denominator != 1 and parent_prec >= 40:
            return f"({s})"
        return s
    if op == "var":
        return e.args[0]
    if op == "func":
        inner = ", ".join(_format(a, 0) for a in e.args[1:])
        return f"{e.args[0]}({inner})"
    if op == "pow":
        base = _format(e.args[0], 41)
        return f"{base}^{e.args[1]}"
    if op == "add":
        parts = [_format(e.args[0], 10)]
        for a in e.args[1:]:
            s = _format(a, 10)
            if s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        out = "".join(parts)
        return f"({out})" if parent_prec > 10 else out
    if op == "mul":
        args = list(e.args)
        sign = ""
        if args and args[0].op == "const":
            c = args[0].args[0]
            if c < 0:
                sign = "-"
                c = -c
            if c == 1 and len(args) > 1:
                args = args[1:]
            else:
                args = [Expr("const", (c,))] + args[1:]
        factors = [_format(a, 21) for a in args]
        out = sign + "*".join(factors)
        return f"({out})" if parent_prec > 20 else out
    if op == "div":
        a = _format(e.args[0], 30)
        b = _format(e.args[1], 30)
        out = f"{a}/{b}"
        return f"({out})" if parent_prec > 20 else out
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos, self.text)

    def peek(self):
        t = self.text
        n = len(t)
        p = self.pos
        while p < n and t[p].isspace():
            p += 1
        self.pos = p
        if p >= n:
            return None
        return t[p]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None, None
        p = self.pos
        t = self.text
        if ch.isdigit():
            q = p
            while q < len(t) and t[q].isdigit():
                q += 1
            self.pos = q
            return "int", int(t[p:q])
        if ch.isalpha():
            q = p
            while q < len(t) and (t[q].isalnum() or t[q] == "_"):
                q += 1
            self.pos = q
            return "ident", t[p:q]
        if ch in "+-*/^(),":
            self.pos = p + 1
            return ch, ch
        self.error(f"unexpected character {ch!r}")


class _Parser:
    """Recursive descent for: +,- < *,／ < unary- < ^ (integer exponents)."""

    def __init__(self, text: str):
        self.tk = _Tokenizer(text)

    def parse(self) -> Expr:
        e = self.add()
        if self.tk.peek() is not None:
            self.tk.error("trailing input")
        return e

    def add(self) -> Expr:
        e = self.mul()
        while True:
            ch = self.tk.peek()
            if ch == "+":
                self.tk.next_token()
                e = _add2(e, self.mul())
            elif ch == "-":
                self.tk.next_token()
                e = _add2(e, _neg(self.mul()))
            else:
                return e

    def mul(self) -> Expr:
        e = self.unary()
        while True:
            ch = self.tk.peek()
            if ch == "*":
                self.tk.next_token()
                e = _mul2(e, self.unary())
            elif ch == "/":
                self.tk.next_token()
                e = Expr("div", (e, self.unary()))
            else:
                return e

    def unary(self) -> Expr:
        if self.tk.peek() == "-":
            self.tk.next_token()
            return _neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        if self.tk.peek() == "^":
            self.tk.next_token()
            sign = 1
            if self.tk.peek() == "-":
                self.tk.next_token()
                sign = -1
            kind, val = self.tk.next_token()
            if kind == "int":
                return Expr("pow", (e, sign * val))
            if kind == "(":
                inner = self.add()
                k2, _ = self.tk.next_token()
                if k2 != ")":
                    self.tk.error("expected ')' in exponent")
                c = inner.const_value()
                if c is None or c.denominator != 1:
                    self.tk.error("exponent must be an integer")
                return Expr("pow", (e, sign * int(c)))
            self.tk.error("exponent must be an integer")

        return e

    def atom(self) -> Expr:
        kind, val = self.tk.next_token()
        if kind == "int":
            return Expr("const", (Fraction(val),))
        if kind == "ident":
            if self.tk.peek() == "(":
                self.tk.next_token()
                args = [self.add()]
                while self.tk.peek() == ",":
                    self.tk.next_token()
                    args.append(self.add())
                k2, _ = self.tk.next_token()
                if k2 != ")":
                    self.tk.error("expected ')' after function arguments")
                if val in KNOWN_FUNCS and len(args) != 1:
                    self.tk.error(f"{val} takes exactly one argument")
                return Expr("func", (val,) + tuple(args))
            return Expr("var", (val,))
        if kind == "(":
            e = self.add()
            k2, _ = self.tk.next_token()
            if k2 != ")":
                self.tk.error("expected ')'")
            return e
        self.tk.error(f"unexpected token {val!r}" if kind else "unexpected end of input")


def parse(text: str) -> Expr:
    """Parse the infix expression grammar used throughout file formats."""
    return _Parser(text).parse()
