import random
from fractions import Fraction
from pathlib import Path

import pytest

from cartanvp import decomp as dc
from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import linalg as la
from cartanvp import symexpr as sx
from cartanvp.errors import RankDeficientLError
from conftest import chi_forms, rand_poly


def opaque(chart, name):
    return sx.func(name, *[sx.var(c) for c in chart.coords])


def blocks(fs):
    """The B, C and G blocks of a normal form, read off its factors: the
    base and the non-pivot fiber coefficients of the pivot rows, and the
    base coefficients of the other rows (None for an empty C or G)."""
    ch, nz = fs.chart, len(fs.z_order)
    rows = fs.coefficient_matrix()
    wcols = [j for j in range(ch.k, ch.dim) if j not in fs.z_order]
    B = tuple(tuple(row[: ch.k]) for row in rows[:nz])
    C = tuple(tuple(row[: ch.k]) for row in rows[nz:]) or None
    G = tuple(tuple(row[j] for j in wcols) for row in rows[:nz]) if wcols else None
    return B, C, G


def example1_factors(chart):
    out = []
    for a in (1, 2, 3):
        alpha = fm.d_coord(chart, f"z{a}")
        for j in (1, 2):
            alpha = alpha + fm.d_coord(chart, f"x{j}") * opaque(chart, f"B{a}{j}")
        out.append(alpha)
    return dc.FactorSet(chart, tuple(out))


def example3_factors(chart):
    out = []
    for a in (1, 2, 3):
        alpha = fm.d_coord(chart, f"z{a}")
        for j in (1, 2):
            alpha = alpha + fm.d_coord(chart, f"x{j}") * opaque(chart, f"B{a}{j}")
        alpha = alpha + fm.d_coord(chart, "w") * opaque(chart, f"C{a}")
        out.append(alpha)
    return dc.FactorSet(chart, tuple(out))


def random_normalized_factorset(rng, chart, h=0, s=0):
    """Random factor set already in normal form (identity fiber pivots)."""
    names = list(chart.coords)
    k = chart.k
    nz = chart.p if s == 0 else chart.p
    alphas = []
    for i in range(nz):
        alpha = fm.d_coord(chart, chart.fiber_z[i])
        for b in chart.base:
            alpha = alpha + fm.d_coord(chart, b) * rand_poly(rng, names, degree=1, terms=2)
        for wname in chart.fiber_w:
            alpha = alpha + fm.d_coord(chart, wname) * rand_poly(rng, names, degree=1, terms=2)
        alphas.append(alpha)
    for _ in range(h):
        alpha = fm.zero_form(chart, 1)
        for b in chart.base:
            alpha = alpha + fm.d_coord(chart, b) * rand_poly(rng, names, degree=0, terms=1)
        alphas.append(alpha)
    return dc.FactorSet(chart, tuple(alphas))


class TestClassify:
    def test_example1_verdict(self, chart5):
        v = dc.classify(example1_factors(chart5))
        assert v.nondegenerate and v.compatible and v.adapted
        assert v.q == 2 and v.vertical_dim == 0

    def test_example3_verdict(self, chart6w):
        v = dc.classify(example3_factors(chart6w))
        assert v.nondegenerate and v.compatible
        assert not v.adapted
        assert v.q == 3 and v.vertical_dim == 1 and v.r == 2

    def test_duplicated_factor_degenerate(self, chart5):
        a1 = fm.d_coord(chart5, "z1") + fm.d_coord(chart5, "x1") * opaque(chart5, "B11")
        fs = dc.FactorSet(chart5, (a1, a1, fm.d_coord(chart5, "z3")))
        v = dc.classify(fs)
        assert not v.nondegenerate
        assert v.witnesses["degenerate"]


class TestNormalize:
    def test_already_normal_unchanged(self, chart5):
        fs = example1_factors(chart5)
        out = dc.normalize(fs)
        assert out.normalized
        assert out.multiplier == sx.ONE
        assert out.alphas == fs.alphas
        assert out.z_order == (2, 3, 4)
        _, C, G = blocks(out)
        assert C is None and G is None

    def test_rescaling_records_multiplier(self, chart5):
        fs = example1_factors(chart5)
        scaled = dc.FactorSet(
            chart5, (fs.alphas[0] * sx.num(2), fs.alphas[1], fs.alphas[2])
        )
        out = dc.normalize(scaled)
        assert out.multiplier == sx.canon(sx.num(1) / 2)
        # wedge of normalized factors = multiplier * original wedge
        assert out.eta() == scaled.eta() * out.multiplier

    def test_permuted_fiber_columns(self, chart5):
        fs = example1_factors(chart5)
        permuted = dc.FactorSet(
            chart5, (fs.alphas[1], fs.alphas[2], fs.alphas[0])
        )
        out = dc.normalize(permuted)
        assert out.normalized
        # symbolic re-expansion matches the original up to the multiplier
        assert out.eta() == permuted.eta() * out.multiplier
        rows = [pi for pi, _ in out.pivot_permutation]
        assert rows != sorted(rows)

    def test_example3_normal_form(self, chart6w):
        out = dc.normalize(example3_factors(chart6w))
        assert out.normalized
        assert out.z_order == (2, 3, 4)
        _, C, G = blocks(out)
        assert C is None
        assert G is not None and len(G) == 3
        for a in range(3):
            assert G[a][0] == opaque(chart6w, f"C{a + 1}")

    def test_rank_deficient_rejected(self, chart5):
        # no dz parts at all: fiber block is rank zero
        a = [
            fm.d_coord(chart5, "x1"),
            fm.d_coord(chart5, "x2"),
            fm.d_coord(chart5, "x1") * sx.num(2) + fm.d_coord(chart5, "x2"),
        ]
        with pytest.raises(RankDeficientLError):
            dc.normalize(dc.FactorSet(chart5, tuple(a)))

    def test_pivot_vanishing_at_box_center(self, chart5):
        # x1 is the only pivot left for z1 and vanishes at the center of the
        # default box; it is still certified nonzero and taken
        dz1, dz2, dz3, dx1, dx2 = (fm.d_coord(chart5, c) for c in ("z1", "z2", "z3", "x1", "x2"))
        fs = dc.FactorSet(chart5, (dz1 * sx.var("x1") + dx1, dz2 + dx2, dz3))
        out = dc.normalize(fs)
        assert out.z_order == (2, 3, 4)
        assert out.multiplier == sx.canon(1 / sx.var("x1"))
        assert out.eta() == fs.eta() * out.multiplier


def _corpus_chart(k, variant):
    base = [f"x{j}" for j in range(1, k + 1)]
    p = k if variant in ("base_row", "w_pivot") else k + 1
    w = ["w"] if variant in ("w_block", "w_pivot") else []
    return fm.BundleChart(base, [f"z{a}" for a in range(1, p + 1)], w)


def _mixing_matrix(rng, n):
    while True:
        M = [[rng.choice([-2, -1, 0, 0, 1, 1, 2]) for _ in range(n)] for _ in range(n)]
        if la.determinant([[sx.num(v) for v in row] for row in M]) != sx.ZERO:
            return M


def _elimination_corpus():
    """96 seeded factor sets, 8 for each k = 1..3 and chart variant:
    maximal (k+1 z columns), base_row (k z columns, so one pure base row),
    w_block (k+1 z columns and a residual w) and w_pivot (k z columns and
    a w that takes the last pivot).  Rows start in normal form; most sets
    are mixed by a small invertible integer matrix (equal-magnitude fiber
    entries at the box center), then rows are shuffled and scaled by
    rational constants, and one row by a function that does not vanish at
    the center."""
    rng = random.Random(0xE11A)
    out = []
    for k in (1, 2, 3):
        for variant in ("maximal", "base_row", "w_block", "w_pivot"):
            chart = _corpus_chart(k, variant)
            names = list(chart.coords)
            for _ in range(8):
                rows = []
                for z in chart.fiber_z:
                    a = fm.d_coord(chart, z)
                    for b in chart.base + chart.fiber_w:
                        a = a + fm.d_coord(chart, b) * rand_poly(rng, names, degree=1, terms=2)
                    rows.append(a)
                if variant == "w_pivot":
                    rows.append(
                        fm.d_coord(chart, "w")
                        + fm.d_coord(chart, "x1") * rand_poly(rng, names, degree=1, terms=2)
                    )
                while len(rows) < k + 1:
                    a = fm.zero_form(chart, 1)
                    for b in chart.base:
                        a = a + fm.d_coord(chart, b) * rand_poly(rng, names, degree=0, terms=1)
                    rows.append(a)
                if rng.random() < 0.6:
                    mixed = []
                    for mrow in _mixing_matrix(rng, k + 1):
                        acc = fm.zero_form(chart, 1)
                        for c, a in zip(mrow, rows):
                            if c:
                                acc = acc + a * sx.num(c)
                        mixed.append(acc)
                    rows = mixed
                rng.shuffle(rows)
                rows = [
                    a * sx.num(Fraction(rng.choice([-3, -1, 1, 1, 2]), rng.choice([1, 1, 2, 3])))
                    for a in rows
                ]
                j = rng.randrange(k + 1)
                rows[j] = rows[j] * rng.choice([sx.ONE, 2 + sx.var("x1") ** 2, 3 - sx.var(names[-1])])
                out.append(dc.FactorSet(chart, tuple(rows)))
    return out


def _elimination_lines(i, fs):
    n = dc.normalize(fs)
    out = [f"{i} z_order {n.z_order} multiplier {n.multiplier} pivots {n.pivot_permutation}"]
    for name, block in zip(("B", "C", "G"), blocks(n)):
        text = "None" if block is None else " | ".join(", ".join(map(str, r)) for r in block)
        out.append(f"{i} {name} {text}")
    for vertical in (False, True):
        D = ids.characteristic_distribution(fs.alphas, vertical_only=vertical)
        out.append(f"{i} {'vertical' if vertical else 'annihilator'} rank {D.rank}")
        out += [f"{i}   " + ", ".join(map(str, Y.components)) for Y in D.basis]
    return out


class TestEliminationCorpus:
    def test_pinned_normal_forms_and_annihilators(self):
        # recorded with the code in which normalize had its own pivot loop
        # and gauss_eliminate swapped rows: the normal forms and kernel
        # bases must not change
        with open(Path(__file__).parent / "data" / "elimination_corpus.txt") as f:
            want = f.read().splitlines()
        corpus = _elimination_corpus()
        got = [line for i, fs in enumerate(corpus) for line in _elimination_lines(i, fs)]
        assert len(corpus) == 96
        assert got == want


class TestChiForms:
    def test_two_factor_case(self):
        chart = fm.BundleChart(["x1"], ["z1"])
        a1 = fm.d_coord(chart, "z1") + fm.d_coord(chart, "x1") * opaque(chart, "B11")
        a2 = fm.d_coord(chart, "x1") * opaque(chart, "C1")
        fs = dc.normalize(dc.FactorSet(chart, (a1, a2)))
        chis = chi_forms(fs.alphas)
        assert chis[0] == a2
        assert chis[1] == a1 * sx.num(-1)
        assert fm.interior(fm.coord_field(chart, "z1"), fs.eta()) == chis[0]

    def test_example2_relations(self):
        chart = fm.BundleChart(["x1", "x2", "x3"], ["z1", "z2", "z3"])
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart, f"z{a}")
            for k in (1, 2, 3):
                alpha = alpha + fm.d_coord(chart, f"x{k}") * opaque(chart, f"B{a}{k}")
            alphas.append(alpha)
        alpha4 = fm.zero_form(chart, 1)
        for k in (1, 2, 3):
            alpha4 = alpha4 + fm.d_coord(chart, f"x{k}") * opaque(chart, f"C{k}")
        fs = dc.normalize(dc.FactorSet(chart, tuple(alphas + [alpha4])))
        chis = chi_forms(fs.alphas)
        eta = fs.eta()
        # the contraction identity on every pivot coordinate, and the
        # printed sign pattern
        for row, col in enumerate(fs.z_order):
            assert fm.interior(fm.coord_field(chart, chart.coords[col]), eta) == chis[row]
        assert chis[0] == fm.wedge_all([fs.alphas[1], fs.alphas[2], fs.alphas[3]])
        assert chis[1] == fm.wedge_all([fs.alphas[0], fs.alphas[2], fs.alphas[3]]) * sx.num(-1)
        assert fm.interior(fm.coord_field(chart, "z2"), eta) == chis[1]

    def test_pivot_contraction_identity_random_corpus(self):
        rng = random.Random(21)
        chart = fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"])
        for _ in range(50):
            fs = random_normalized_factorset(rng, chart, h=0)
            fs = dc.FactorSet(chart, fs.alphas, normalized=True, z_order=(2, 3, 4))
            chis = chi_forms(fs.alphas)
            eta = fs.eta()
            for row, col in enumerate(fs.z_order):
                name = chart.coords[col]
                assert fm.interior(fm.coord_field(chart, name), eta) == chis[row]

    def test_residual_contraction_identity_random_corpus(self, chart6w):
        rng = random.Random(23)
        for _ in range(50):
            fs = dc.normalize(random_normalized_factorset(rng, chart6w, s=1))
            chis = chi_forms(fs.alphas)
            eta = fs.eta()
            for row, col in enumerate(fs.z_order):
                name = chart6w.coords[col]
                assert fm.interior(fm.coord_field(chart6w, name), eta) == chis[row]
            # residual-block contraction identity
            lhs = fm.interior(fm.coord_field(chart6w, "w"), eta)
            rhs = fm.zero_form(chart6w, 2)
            _, _, G = blocks(fs)
            for j in range(3):
                rhs = rhs + chis[j] * G[j][0]
            assert lhs == rhs

    def test_psi_tail_combination_random(self, chart6w):
        # contraction along the residual direction is the G-weighted
        # combination of the leading contractions
        rng = random.Random(27)
        for _ in range(20):
            fs = dc.normalize(random_normalized_factorset(rng, chart6w, s=1))
            eta = fs.eta()
            psi_w = fm.interior(fm.coord_field(chart6w, "w"), eta)
            acc = fm.zero_form(chart6w, 2)
            _, _, G = blocks(fs)
            for j, zcol in enumerate(fs.z_order):
                name = chart6w.coords[zcol]
                acc = acc + fm.interior(fm.coord_field(chart6w, name), eta) * G[j][0]
            assert psi_w == acc
