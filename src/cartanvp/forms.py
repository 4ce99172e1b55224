"""Exterior algebra on a coordinate chart.

Forms are sparse maps from strictly ascending coordinate-index tuples to
exact scalar coefficients; insertion normalizes signs so that equality of
canonical coefficients is plain map comparison.  The interior product is
the antiderivation acting from the left, and the Hodge star assumes the
Euclidean metric with orientation given by ascending coordinate order.

The calculus computes on the `_Rat` payloads of canonical coefficients:
wedge, interior, d, the Hodge star, pullbacks, the Lie bracket and form
and field arithmetic hand `(index, payload)` contributions to `_collect`,
which folds each index's contributions with `_rat_add` left to right in
arrival order and builds one canonical node per index whose sum is not
zero; no expression tree is built on the way.  d and the Lie bracket
differentiate payloads with `sx._diff_payload`, the payload of `sx.diff`
without its node, by the coordinates that `sx._diff_vars` keeps: every
one, except those missing from a coefficient whose atoms are all
variables.  Computed
forms and fields are built by `DiffForm._make` and `VecField._make`,
which take their canonical terms as they are; `__init__`, which checks
indices and canonicalizes coefficients, is for input.  Products are
free of order (their normalization only rescales), sums are not: without
a polynomial gcd the order of a sum of rational terms can change its
canonical quotient, so every fold keeps the order of the raw sum it
stands for.  `form_from_spec` alone sums raw
parse trees, because a repeated index splices them into one sum, and
canonicalizes that sum.  `_merge_indices` is the package's one sign rule
for two ascending index tuples; `_perm_sign` serves unsorted input only,
and every contraction elsewhere is a call of `interior`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import symexpr as sx
from .errors import ChartMismatchError, DegreeMismatchError
from .symexpr import Expr

__all__ = [
    "Chart",
    "BundleChart",
    "DiffForm",
    "VecField",
    "SectionMap",
    "wedge",
    "ext_d",
    "interior",
    "pullback",
    "pullback_with",
    "lie_bracket",
    "hodge_star",
    "dual_one_form",
    "zero_form",
    "one_form",
    "d_coord",
    "coord_field",
    "form_from_spec",
    "form_to_spec",
]


class Chart:
    """Ordered coordinate names; orientation is the ascending order."""

    __slots__ = ("coords", "_index")

    def __init__(self, coords: Sequence[str]):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate names must be pairwise distinct")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(coords)})

    def __setattr__(self, name, value):
        raise AttributeError("Chart is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"coordinate {name!r} not in chart {self.coords}") from None

    def __eq__(self, other):
        return isinstance(other, Chart) and type(self) is type(other) and self._ident() == other._ident()

    def __hash__(self):
        return hash(self._ident())

    def _ident(self):
        return self.coords

    def __repr__(self):
        return f"Chart{self.coords}"


class BundleChart(Chart):
    """Chart split into a base block and fiber block(s).

    The primary fiber block holds the z coordinates; a nonempty residual
    block w marks the chart as a non-proper candidate.  Metric is
    Euclidean (identity), orientation the ascending coordinate order.
    """

    __slots__ = ("base", "fiber_z", "fiber_w")

    def __init__(self, base: Sequence[str], fiber_z: Sequence[str], fiber_w: Sequence[str] = ()):
        base, fiber_z, fiber_w = tuple(base), tuple(fiber_z), tuple(fiber_w)
        if len(base) < 1 or len(fiber_z) < 1:
            raise ValueError("need at least one base and one primary fiber coordinate")
        super().__init__(base + fiber_z + fiber_w)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber_z", fiber_z)
        object.__setattr__(self, "fiber_w", fiber_w)

    @property
    def k(self) -> int:
        return len(self.base)

    @property
    def p(self) -> int:
        return len(self.fiber_z)

    @property
    def s(self) -> int:
        return len(self.fiber_w)

    @property
    def fiber(self) -> tuple[str, ...]:
        return self.fiber_z + self.fiber_w

    def is_base(self, i: int) -> bool:
        return i < self.k

    def _ident(self):
        return (self.base, self.fiber_z, self.fiber_w)

    def base_only(self) -> Chart:
        return Chart(self.base)

    def __repr__(self):
        return f"BundleChart(base={self.base}, fiber_z={self.fiber_z}, fiber_w={self.fiber_w})"


# ---------------------------------------------------------------------------
# index bookkeeping


def _merge_indices(I: tuple, J: tuple) -> Optional[tuple[int, tuple]]:
    """dx^I ^ dx^J = sign dx^K for ascending I and J: (sign, K), or None
    on a shared index.  The sign is the parity of the pairs a in I, b in J
    with a > b."""
    inv = 0
    for a in I:
        for b in J:
            if a == b:
                return None
            if a > b:
                inv += 1
    return (-1 if inv % 2 else 1), tuple(sorted(I + J))


def _perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation that sorts `seq` (distinct entries)."""
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------------------
# forms and fields


def _canon_coeff(c) -> Expr:
    return sx.canon(c if isinstance(c, Expr) else sx.num(c))


class DiffForm:
    """Degree-k form: sparse {ascending index tuple: canonical coefficient}."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple, Expr] | None = None):
        if degree < 0:
            raise DegreeMismatchError("form degree must be nonnegative")
        clean: dict[tuple, Expr] = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeMismatchError(f"index {idx} has length != degree {degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} must be strictly ascending")
            if idx and (idx[0] < 0 or idx[-1] >= chart.dim):
                raise ValueError(f"index {idx} out of range for chart")
            cc = _canon_coeff(c)
            if not cc.is_const_zero():
                clean[idx] = cc
        if clean and degree > chart.dim:
            raise DegreeMismatchError("degree exceeds chart dimension")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, chart: Chart, degree: int, terms: dict[tuple, Expr]) -> "DiffForm":
        """The form of `terms`, nonzero canonical coefficients at strictly
        ascending in-range indices of length `degree`, taken as they are:
        the constructor of computed results, with none of `__init__`'s
        checks."""
        form = object.__new__(cls)
        object.__setattr__(form, "chart", chart)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "terms", terms)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("DiffForm is immutable")

    def is_zero_form(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, self.degree, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other: "DiffForm") -> "DiffForm":
        _check_chart(self, other)
        if self.degree != other.degree and self.terms and other.terms:
            raise DegreeMismatchError("cannot add forms of different degree")
        deg = self.degree if self.terms or not other.terms else other.degree
        return _collect(self.chart, deg, [*_payloads(self), *_payloads(other)])

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + -other

    def __mul__(self, scalar) -> "DiffForm":
        s = _canon_coeff(scalar)._rat
        return _collect(
            self.chart, self.degree, ((I, sx._rat_mul(c._rat, s)) for I, c in self.terms.items())
        )

    __rmul__ = __mul__

    def __neg__(self):
        return _collect(self.chart, self.degree, [(I, sx._rat_neg(r)) for I, r in _payloads(self)])

    def display(self) -> str:
        """Human-readable sum of wedge monomials, deterministic order."""
        if not self.terms:
            return "0"
        names = self.chart.coords
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            mono = "^".join(f"d{names[i]}" for i in idx) or "1"
            parts.append(f"({c}) {mono}" if idx else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffForm<deg {self.degree}>({self.display()})"


class VecField:
    """Vector field: one canonical coefficient per chart coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence):
        components = tuple(_canon_coeff(c) for c in components)
        if len(components) != chart.dim:
            raise DegreeMismatchError("component list length must equal chart dimension")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", components)

    @classmethod
    def _make(cls, chart: Chart, components: tuple[Expr, ...]) -> "VecField":
        """The field of `components`, one canonical coefficient per chart
        coordinate, taken as they are: the constructor of computed
        results, with none of `__init__`'s checks."""
        field = object.__new__(cls)
        object.__setattr__(field, "chart", chart)
        object.__setattr__(field, "components", components)
        return field

    def __setattr__(self, name, value):
        raise AttributeError("VecField is immutable")

    def is_zero_field(self) -> bool:
        return all(c.is_const_zero() for c in self.components)

    def is_vertical(self) -> bool:
        ch = self.chart
        if not isinstance(ch, BundleChart):
            raise ChartMismatchError("verticality needs a bundle chart")
        return all(self.components[i].is_const_zero() for i in range(ch.k))

    def __eq__(self, other):
        if not isinstance(other, VecField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __hash__(self):
        return hash((self.chart, self.components))

    def __add__(self, other):
        _check_chart(self, other)
        return VecField._make(
            self.chart, tuple(_sum((a._rat, b._rat)) for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other):
        _check_chart(self, other)
        return VecField._make(
            self.chart,
            tuple(_sum((a._rat, sx._rat_neg(b._rat))) for a, b in zip(self.components, other.components)),
        )

    def __mul__(self, scalar):
        s = _canon_coeff(scalar)._rat
        return VecField._make(
            self.chart, tuple(sx._rat_to_expr(sx._rat_mul(c._rat, s)) for c in self.components)
        )

    __rmul__ = __mul__

    def display(self) -> str:
        parts = [
            f"({c}) d/d{n}"
            for n, c in zip(self.chart.coords, self.components)
            if not c.is_const_zero()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VecField({self.display()})"


class SectionMap:
    """Bundle section in coordinates: one expression per fiber coordinate,
    each a function of base coordinates only."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: BundleChart, components: Mapping[str, Expr]):
        if not isinstance(chart, BundleChart):
            raise ChartMismatchError("SectionMap needs a BundleChart")
        comp: dict[str, Expr] = {}
        base = set(chart.base)
        for name in chart.fiber:
            if name not in components:
                raise ChartMismatchError(f"missing section component for {name!r}")
            c = _canon_coeff(components[name])
            bad = sx.free_vars(c) - base
            if bad:
                raise ValueError(f"section component {name!r} uses fiber variables {sorted(bad)}")
            comp[name] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", comp)

    def __setattr__(self, name, value):
        raise AttributeError("SectionMap is immutable")

    def __repr__(self):
        inner = ", ".join(f"{n} = {c}" for n, c in self.components.items())
        return f"SectionMap({inner})"


def _check_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")


def _fold(contributions: Iterable[tuple[tuple, sx._Rat]]) -> dict[tuple, sx._Rat]:
    """Payload sum per index: each index's contributions added left to right
    in arrival order, as `_to_rat` folds the raw sum they stand for (a zero
    contribution is skipped, which is the identity)."""
    acc: dict[tuple, sx._Rat] = {}
    for K, r in contributions:
        if not sx._rat_is_zero(r):
            acc[K] = sx._rat_add(acc[K], r) if K in acc else r
    return acc


def _collect(chart: Chart, degree: int, contributions: Iterable[tuple[tuple, sx._Rat]]) -> DiffForm:
    """The form of `(index, payload)` contributions: `_fold`, then one
    canonical node per index whose sum is not zero."""
    terms = {K: sx._rat_to_expr(r) for K, r in _fold(contributions).items() if not sx._rat_is_zero(r)}
    return DiffForm._make(chart, degree, terms)


def _sum(rats: Iterable[sx._Rat]) -> Expr:
    """Canonical node of a payload sum, added left to right."""
    return sx._rat_to_expr(_fold(((), r) for r in rats).get((), sx._RAT_ZERO))


# ---------------------------------------------------------------------------
# constructors


def zero_form(chart: Chart, degree: int) -> DiffForm:
    return DiffForm(chart, degree, {})


def one_form(chart: Chart, components: Mapping[str, Expr]) -> DiffForm:
    return DiffForm(chart, 1, {(chart.index(n),): c for n, c in components.items()})


def d_coord(chart: Chart, name: str) -> DiffForm:
    """The basis one-form d<name>."""
    return DiffForm(chart, 1, {(chart.index(name),): sx.ONE})


def coord_field(chart: Chart, name: str) -> VecField:
    comps = [sx.ZERO] * chart.dim
    comps[chart.index(name)] = sx.ONE
    return VecField(chart, comps)


def form_from_spec(chart: Chart, spec: Iterable[Mapping]) -> DiffForm:
    """Build a form from [{'coeff': str|Expr, 'index': [names]}] records."""
    degree = None
    terms: dict[tuple, Expr] = {}
    for item in spec:
        names = list(item["index"])
        if degree is None:
            degree = len(names)
        elif len(names) != degree:
            raise DegreeMismatchError("inconsistent index lengths in form spec")
        raw = item["coeff"]
        coeff = sx.parse(raw) if isinstance(raw, str) else _canon_coeff(raw)
        positions = [chart.index(n) for n in names]
        if len(set(positions)) != len(positions):
            continue
        c = coeff * sx.num(_perm_sign(positions))
        idx = tuple(sorted(positions))
        # raw sums: a repeated index splices its parse trees into one sum
        terms[idx] = terms[idx] + c if idx in terms else c
    return DiffForm(chart, degree if degree is not None else 0, terms)


def form_to_spec(form: DiffForm) -> list[dict]:
    names = form.chart.coords
    return [
        {"coeff": str(form.terms[idx]), "index": [names[i] for i in idx]}
        for idx in sorted(form.terms)
    ]


# ---------------------------------------------------------------------------
# the exterior calculus operations


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product; bilinear, associative, graded-commutative."""
    _check_chart(a, b)
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        return zero_form(a.chart, a.chart.dim)
    return _collect(a.chart, deg, _wedge_terms(_payloads(a), _payloads(b)))


def _payloads(a: DiffForm) -> list[tuple[tuple, sx._Rat]]:
    return [(I, c._rat) for I, c in a.terms.items()]


def _signed(sign: int, r: sx._Rat) -> sx._Rat:
    return r if sign > 0 else sx._rat_neg(r)


def _wedge_terms(a_terms, b_terms) -> Iterator[tuple[tuple, sx._Rat]]:
    """The contributions of the wedge of two payload term lists."""
    for I, ra in a_terms:
        for J, rb in b_terms:
            m = _merge_indices(I, J)
            if m is not None:
                yield m[1], _signed(m[0], sx._rat_mul(ra, rb))


def wedge_all(factors: Sequence[DiffForm]) -> DiffForm:
    if not factors:
        raise ValueError("need at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = wedge(acc, f)
    return acc


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative: linear, Leibniz, d(d(a)) = 0.

    Each coefficient is differentiated on its payload, as `sx.diff` would,
    by each coordinate outside its index that `sx._diff_vars` keeps."""
    chart = a.chart
    contributions = []
    for I, c in a.terms.items():
        names = sx._diff_vars(c, chart._index)
        for i, name in enumerate(chart.coords):
            if name not in names:
                continue
            m = _merge_indices((i,), I)
            if m is None:
                continue
            dc = sx._diff_payload(c, name)
            if not sx._rat_is_zero(dc):
                contributions.append((m[1], _signed(m[0], dc)))
    return _collect(chart, a.degree + 1, contributions)


def interior(X: VecField, a: DiffForm) -> DiffForm:
    """Left interior product (contraction); an antiderivation."""
    _check_chart(X, a)
    if a.degree == 0:
        return zero_form(a.chart, 0)
    contributions = []
    for I, c in a.terms.items():
        for pos, i in enumerate(I):
            comp = X.components[i]
            if comp.is_const_zero():
                continue
            K = I[:pos] + I[pos + 1 :]
            sign = -1 if pos % 2 else 1
            contributions.append((K, _signed(sign, sx._rat_mul(comp._rat, c._rat))))
    return _collect(a.chart, a.degree - 1, contributions)


def pullback_with(
    a: DiffForm,
    target: Chart,
    diff_map: Mapping[int, DiffForm],
    coeff_sub: Mapping[str, Expr],
) -> DiffForm:
    """Substitution engine behind pullbacks.

    `diff_map` sends each source coordinate index to a one-form on the
    target chart (the image of its differential); `coeff_sub` rewrites
    coefficient variables.  Commutes with wedge and d by construction.
    """
    images = {}
    for i, f in diff_map.items():
        if f.chart != target:
            raise ChartMismatchError(f"chart mismatch: {target!r} vs {f.chart!r}")
        images[i] = _payloads(f)
    contributions = []
    for I, c in a.terms.items():
        cc = sx.subst(c, coeff_sub) if coeff_sub else c
        if cc.is_const_zero():
            continue
        # the wedge of the images, one factor at a time, each step summed
        piece = {(): cc._rat}
        for i in I:
            piece = _fold(_wedge_terms(piece.items(), images[i]))
            if not piece:
                break
        contributions.extend(piece.items())
    return _collect(target, a.degree, contributions)


def pullback(phi: SectionMap, a: DiffForm) -> DiffForm:
    """Pull a form back along a section; result lives on the base chart.

    Fiber variables are substituted by the section components, fiber
    differentials by their total differentials in the base coordinates.
    """
    chart = phi.chart
    if a.chart != chart:
        raise ChartMismatchError("form and section live on different charts")
    target = chart.base_only()
    diff_map: dict[int, DiffForm] = {}
    for i, name in enumerate(chart.coords):
        if chart.is_base(i):
            diff_map[i] = d_coord(target, name)
        else:
            comp = phi.components[name]
            diff_map[i] = one_form(
                target, {b: sx.diff(comp, b) for b in chart.base}
            )
    coeff_sub = {n: phi.components[n] for n in chart.fiber}
    return pullback_with(a, target, diff_map, coeff_sub)


def lie_bracket(X: VecField, Y: VecField) -> VecField:
    """[X, Y]^i = X(Y^i) - Y(X^i).

    A component is differentiated on its payload, as `sx.diff` would, by
    each coordinate that `sx._diff_vars` keeps and whose component in the
    other field is not zero."""
    _check_chart(X, Y)
    coords, every = X.chart.coords, X.chart._index
    xs, ys = X.components, Y.components
    comps = []
    for xi, yi in zip(xs, ys):
        x_names, y_names = sx._diff_vars(xi, every), sx._diff_vars(yi, every)
        terms = []
        for xj, yj, cj in zip(xs, ys, coords):
            # X^j dY^i/dx^j - Y^j dX^i/dx^j, term by term in this order
            if cj in y_names and not xj.is_const_zero():
                terms.append(sx._rat_mul(xj._rat, sx._diff_payload(yi, cj)))
            if cj in x_names and not yj.is_const_zero():
                terms.append(sx._rat_neg(sx._rat_mul(yj._rat, sx._diff_payload(xi, cj))))
        comps.append(_sum(terms))
    return VecField._make(X.chart, tuple(comps))


def hodge_star(a: DiffForm) -> DiffForm:
    """Euclidean Hodge star: *(dx^I) = sign(I, I^c) dx^{I^c}."""
    n = a.chart.dim
    contributions = []
    for I, c in a.terms.items():
        comp = tuple(i for i in range(n) if i not in I)
        contributions.append((comp, _signed(_merge_indices(I, comp)[0], c._rat)))
    return _collect(a.chart, n - a.degree, contributions)


def dual_one_form(X: VecField) -> DiffForm:
    """Metric-dual one-form; identity metric copies components."""
    return DiffForm(
        X.chart,
        1,
        {(i,): c for i, c in enumerate(X.components)},
    )


def volume_form(chart: Chart) -> DiffForm:
    return DiffForm(chart, chart.dim, {tuple(range(chart.dim)): sx.ONE})
