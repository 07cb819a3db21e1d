import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netcert.blackbox import build_platoon_class, build_room_class
from netcert.core import (
    _BASIS_BLOCK,
    DimensionError,
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SupplyRate,
    eval_supply,
    eval_template,
    rowwise_bilinear,
)

ROOM_TEMPLATE = StcTemplate(state_dim=1, exponents=[[4], [2], [0]])
ROOM_COEFFS = np.array([0.0151, -0.7, -0.7])


class TestIntervalBox:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvariantError):
            IntervalBox([1.0], [0.0])

    def test_rejects_mismatched_dims(self):
        with pytest.raises((InvariantError, DimensionError)):
            IntervalBox([0.0, 1.0], [2.0])

    def test_contains_and_clamp(self):
        box = IntervalBox([0.0, 0.0], [1.0, 2.0])
        assert box.contains(np.array([0.5, 1.5]))
        assert not box.contains(np.array([1.5, 0.5]))
        assert np.allclose(box.clamp(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_concat(self):
        joint = IntervalBox([0.0], [1.0]).concat(IntervalBox([2.0], [3.0]))
        assert joint.dim == 2
        assert np.allclose(joint.lower, [0.0, 2.0])


class TestSafetySpec:
    def test_rejects_overlapping_boxes(self):
        with pytest.raises(InvariantError):
            SafetySpec(initial=IntervalBox([0.0], [1.0]), unsafe=IntervalBox([0.5], [2.0]))

    def test_accepts_disjoint_boxes(self):
        spec = SafetySpec(initial=IntervalBox([0.0], [1.0]), unsafe=IntervalBox([2.0], [3.0]))
        assert spec.initial.dim == 1

    def test_touching_boxes_count_as_overlap(self):
        # a shared boundary point is still a nonempty intersection
        with pytest.raises(InvariantError):
            SafetySpec(initial=IntervalBox([0.0], [1.0]), unsafe=IntervalBox([1.0], [2.0]))


class TestEvalTemplate:
    def test_room_polynomial_at_11(self):
        assert eval_template(ROOM_TEMPLATE, ROOM_COEFFS, [[11.0]])[0] == pytest.approx(
            135.6791, abs=1e-10
        )

    def test_room_polynomial_at_12(self):
        assert eval_template(ROOM_TEMPLATE, ROOM_COEFFS, [[12.0]])[0] == pytest.approx(
            211.6136, abs=1e-10
        )

    def test_zero_coefficients(self):
        zero = np.array([0.0, 0.0, 0.0])
        assert eval_template(ROOM_TEMPLATE, zero, [[7.3]])[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            eval_template(ROOM_TEMPLATE, ROOM_COEFFS, [[1.0, 2.0]])
        with pytest.raises(DimensionError):
            eval_template(ROOM_TEMPLATE, np.array([1.0]), [[1.0]])
        with pytest.raises(DimensionError):
            eval_template(ROOM_TEMPLATE, ROOM_COEFFS[:, None], [[1.0]])

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            terms = int(rng.integers(1, 6))
            template = StcTemplate(
                state_dim=dim, exponents=rng.integers(0, 4, size=(terms, dim))
            )
            c1 = rng.normal(size=terms)
            c2 = rng.normal(size=terms)
            lam = float(rng.normal())
            x = rng.uniform(-2, 2, size=(1, dim))
            v1 = eval_template(template, c1, x)[0]
            v2 = eval_template(template, c2, x)[0]
            vsum = eval_template(template, c1 + c2, x)[0]
            vscaled = eval_template(template, lam * c1, x)[0]
            assert vsum == pytest.approx(v1 + v2, abs=1e-10, rel=1e-10)
            assert vscaled == pytest.approx(lam * v1, abs=1e-10, rel=1e-10)


def reference_basis(template: StcTemplate, pts: np.ndarray) -> np.ndarray:
    """The basis as the (N, terms, dim) power array reduced over dim.

    Base and exponent are both materialised at the full (N, terms, dim)
    shape, so every power takes NumPy's vector ``pow`` whatever the sizes:
    ``**`` with a one-element exponent array, and ``power`` with a broadcast
    one, go to ``square`` and friends instead, which round differently on
    hosts with SIMD ``pow`` (x = 0.8 squared differs in the last bit)."""
    shape = (pts.shape[0], *template.exponents.shape)
    base = np.broadcast_to(pts[:, None, :], shape).copy()
    exps = np.broadcast_to(template.exponents.astype(float), shape).copy()
    return np.prod(np.power(base, exps), axis=2)


# Equality with the reference must be exact, not approximate.  The
# reverse-Weibull fit behind L1 amplifies last-bit changes of B: a 1e-14
# relative perturbation of platoon's 30 batch maxima moves the fitted L1 from
# 4253.8252 to 4253.5466 (6.5e-5 relative), so evaluator bits are part of the
# certificate's contract.
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-3.0, 3.0),
    st.floats(-1e3, 1e3),
)


# nan, the infinities, signed zeros and the smallest subnormals
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5]


class TestBasisValues:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        rows=st.one_of(
            st.integers(1, 40),
            # around sub-block boundaries, every row count mod 4
            st.tuples(st.integers(0, 2), st.integers(0, 7)).map(
                lambda kr: kr[0] * _BASIS_BLOCK + kr[1]
            ),
        ),
    )
    def test_matches_reference_bitwise(self, data, rows):
        dim = data.draw(st.integers(1, 3))
        exponents = data.draw(
            hnp.arrays(
                np.int64, st.tuples(st.integers(1, 10), st.just(dim)), elements=st.integers(0, 6)
            )
        )
        # one term with a factor of every coordinate: a product of dim factors
        full = data.draw(hnp.arrays(np.int64, dim, elements=st.integers(1, 6)))
        drawn = data.draw(
            hnp.arrays(
                np.float64, st.tuples(st.integers(1, 40), st.just(dim)), elements=COORDINATES
            )
        )
        pts = np.resize(drawn, (rows, dim))
        template = StcTemplate(state_dim=dim, exponents=np.vstack([exponents, full]))
        assert np.array_equal(template.basis_values(pts), reference_basis(template, pts))

    def test_each_template_keeps_its_own_plan(self):
        """Templates of one shape but different exponents, evaluated in
        turn and created afresh, each give their own reference bits."""
        pts = np.random.default_rng(5).uniform(-3.0, 3.0, (_BASIS_BLOCK + 5, 2))
        exponent_sets = [[[2, 1], [0, 3], [1, 1]], [[1, 2], [3, 0], [2, 2]]]
        kept = [StcTemplate(state_dim=2, exponents=e) for e in exponent_sets]
        fresh = [StcTemplate(state_dim=2, exponents=e) for e in exponent_sets]
        for template in kept + kept + fresh:
            expected = reference_basis(template, pts)
            assert np.array_equal(bits(template.basis_values(pts)), bits(expected))

    def test_one_term_square_matches_reference(self):
        template = StcTemplate(state_dim=1, exponents=[[2]])
        pts = np.array([[0.8]])
        assert np.array_equal(template.basis_values(pts), reference_basis(template, pts))

    @pytest.mark.parametrize(
        "build", [build_room_class, build_platoon_class], ids=["room", "platoon"]
    )
    def test_benchmark_templates_bitwise(self, build):
        cls = build()
        box = cls.state_box
        rng = np.random.default_rng(3)
        inside = rng.uniform(box.lower, box.upper, (10_000, cls.state_dim))
        around = rng.uniform(-2 * box.upper, 2 * box.upper, (10_000, cls.state_dim))
        around[::7, 0] = 0.0
        pts = np.vstack([inside, around])
        expected = reference_basis(cls.template, pts)
        assert np.array_equal(cls.template.basis_values(pts), expected)
        # a single row gives the same bits as the same row inside a batch
        assert np.array_equal(cls.template.basis_values(pts[5]), expected[5:6])

    def test_trivial_powers_of_special_values(self):
        """Exponents 0 and 1 are not computed with ``pow``; at nan, the
        infinities, signed zeros and the smallest subnormal the basis still
        has the reference's bits."""
        pts = np.array([[a, b] for a in SPECIAL for b in SPECIAL])
        template = StcTemplate(
            state_dim=2,
            exponents=[[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [2, 0], [2, 1], [1, 3]],
        )
        with np.errstate(all="ignore"):
            got, expected = template.basis_values(pts), reference_basis(template, pts)
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize(
        "exponents",
        [
            [[2, 0], [2, 1]],
            [[2, 1], [2, 0], [1, 3], [0, 3]],
            [[2, 0], [2, 0]],
            [[0, 3], [1, 1], [0, 3], [2, 3], [0, 0]],
        ],
        ids=["also-a-factor", "factor-first", "twice", "twice-and-a-factor"],
    )
    def test_lone_powers_of_special_values(self, exponents):
        """A power that is a term on its own is raised straight into that
        term's column, which may also be a factor of later terms or be
        wanted by a second identical term; the bits stay the reference's."""
        pts = np.array([[a, b] for a in SPECIAL for b in SPECIAL])
        template = StcTemplate(state_dim=2, exponents=exponents)
        with np.errstate(all="ignore"):
            got, expected = template.basis_values(pts), reference_basis(template, pts)
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("rows", [1, 7, _BASIS_BLOCK + 3], ids=["1", "7", "block+3"])
    def test_into_an_oversized_buffer(self, rows):
        """``out`` may have more rows than the points: the basis is its
        first rows, with the reference's bits, and the rest is untouched."""
        template = StcTemplate(state_dim=2, exponents=[[2, 0], [2, 1], [1, 0], [0, 0], [3, 3]])
        special = np.array([[a, b] for a in SPECIAL for b in SPECIAL])
        pts = np.resize(special, (rows, 2))
        buf = np.full((_BASIS_BLOCK + 8, template.term_count), 7.0)
        with np.errstate(all="ignore"):
            got = template.basis_values(pts, out=buf)
            expected = reference_basis(template, pts)
        assert got.shape == (rows, template.term_count)
        assert np.shares_memory(got, buf)
        assert np.array_equal(bits(buf[:rows]), bits(expected))
        assert (buf[rows:] == 7.0).all()

    @pytest.mark.parametrize(
        "buf",
        [
            np.empty((3, 2)),
            np.empty((2, 3)),
            np.empty((4, 3), np.float32),
            np.empty((3, 4))[:, :3],
        ],
        ids=["short", "narrow", "float32", "strided"],
    )
    def test_unfit_buffer_rejected(self, buf):
        template = StcTemplate(state_dim=1, exponents=[[2], [1], [0]])
        with pytest.raises(DimensionError):
            template.basis_values(np.ones((4, 1)), out=buf)


class TestEvalTemplateSubBlocks:
    """``eval_template`` multiplies one ``_BASIS_BLOCK``-row sub-block of the
    basis at a time; the values must be those of one gemv over all rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        rows=st.one_of(
            st.integers(1, 3 * _BASIS_BLOCK + 7),
            # just past a sub-block boundary, every row count mod 4
            st.tuples(st.integers(0, 3), st.integers(1, 7)).map(
                lambda kr: kr[0] * _BASIS_BLOCK + kr[1]
            ),
        ),
    )
    def test_matches_one_gemv_bitwise(self, data, rows):
        dim = data.draw(st.integers(1, 3))
        exponents = data.draw(
            hnp.arrays(
                np.int64, st.tuples(st.integers(1, 15), st.just(dim)), elements=st.integers(0, 4)
            )
        )
        template = StcTemplate(state_dim=dim, exponents=exponents)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = rng.uniform(-3.0, 3.0, (rows, dim))
        coeffs = rng.uniform(-200.0, 200.0, template.term_count)
        assert np.array_equal(
            bits(eval_template(template, coeffs, pts)),
            bits(template.basis_values(pts) @ coeffs),
        )

    @pytest.mark.parametrize("rows", [1, 3, 5, _BASIS_BLOCK + 3, 2 * _BASIS_BLOCK + 6])
    def test_workspaces_keep_the_bits(self, rows):
        """Values written into ``out``, with each sub-block's basis in
        ``basis_out``, are those of a call that allocates its own."""
        template = StcTemplate(state_dim=2, exponents=[[2, 0], [2, 1], [1, 1], [0, 0], [0, 4]])
        rng = np.random.default_rng(rows)
        pts = rng.uniform(-3.0, 3.0, (rows, 2))
        coeffs = rng.uniform(-200.0, 200.0, template.term_count)
        out = np.empty(rows)
        basis_out = np.empty((min(rows, _BASIS_BLOCK + 3), template.term_count))
        got = eval_template(template, coeffs, pts, out=out, basis_out=basis_out)
        assert got is out
        assert np.array_equal(bits(got), bits(eval_template(template, coeffs, pts)))

    def test_unfit_value_buffer_rejected(self):
        with pytest.raises(DimensionError):
            eval_template(ROOM_TEMPLATE, ROOM_COEFFS, np.ones((4, 1)), out=np.empty(5))

    @pytest.mark.parametrize("tail", [0, 1, 2, 3])
    def test_short_last_sub_block_joins_the_one_before(self, monkeypatch, tail):
        """Sub-blocks start at multiples of ``_BASIS_BLOCK``; a last one of
        fewer than 4 rows is evaluated with the rows before it."""
        calls = []
        basis_values = StcTemplate.basis_values

        def recording(self, points, out=None):
            calls.append(np.shape(points)[0])
            return basis_values(self, points, out=out)

        monkeypatch.setattr(StcTemplate, "basis_values", recording)
        rows = 2 * _BASIS_BLOCK + tail
        eval_template(ROOM_TEMPLATE, ROOM_COEFFS, np.linspace(-1.0, 1.0, rows)[:, None])
        expected = [_BASIS_BLOCK, _BASIS_BLOCK + tail] if tail else [_BASIS_BLOCK] * 2
        assert calls == expected


class TestSupplyRate:
    def test_room_supply_value(self):
        rate = SupplyRate([[0.01]], [[0.0]], [[-0.1]])
        assert eval_supply(rate, [[1.0]], [[10.0]])[0] == pytest.approx(-9.99, abs=1e-12)

    def test_zero_vectors(self):
        rate = SupplyRate([[0.3]], [[-2.0]], [[1.7]])
        assert eval_supply(rate, [[0.0]], [[0.0]])[0] == 0.0

    def test_pure_cross_term(self):
        rate = SupplyRate([[0.0]], [[1.0]], [[0.0]])
        assert eval_supply(rate, [[2.0]], [[3.0]])[0] == pytest.approx(12.0, abs=1e-12)

    def test_rejects_asymmetric_blocks(self):
        with pytest.raises(InvariantError):
            SupplyRate([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)), [[0.0]])

    def test_matches_block_matrix_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            s11 = rng.normal(size=(p, p))
            s11 = 0.5 * (s11 + s11.T)
            s22 = rng.normal(size=(n, n))
            s22 = 0.5 * (s22 + s22.T)
            s12 = rng.normal(size=(p, n))
            rate = SupplyRate(s11, s12, s22)
            d = rng.normal(size=(1, p))
            x = rng.normal(size=(1, n))
            v = np.concatenate([d[0], x[0]])
            expected = float(v @ np.block([[s11, s12], [s12.T, s22]]) @ v)
            assert eval_supply(rate, d, x)[0] == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        rate = SupplyRate([[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(DimensionError):
            eval_supply(rate, [[1.0, 2.0]], [[1.0]])


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def draw_bilinear_operands(data, rows):
    """(a, m, b) of shapes (rows, p), (p, q), (rows, q) with p, q in 1..4."""
    p, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, m, b = (
        data.draw(hnp.arrays(np.float64, shape, elements=COORDINATES))
        for shape in ((rows, p), (p, q), (rows, q))
    )
    return a, m, b


class TestRowwiseBilinear:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_einsum_bitwise_from_three_rows(self, data):
        """``eval_supply`` summed three ``np.einsum("ni,ij,nj->n", ...)``
        calls before it used ``rowwise_bilinear``; this pins its values to
        those bits on 3 or more rows (einsum rounds 1- and 2-row batches
        differently)."""
        a, m, b = draw_bilinear_operands(data, data.draw(st.integers(3, 200)))
        expected = np.einsum("ni,ij,nj->n", a, m, b)
        assert np.array_equal(bits(rowwise_bilinear(a, m, b)), bits(expected))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_subset_gives_subset_of_values(self, data):
        """A row's value does not depend on the other rows in the batch,
        which is what lets the heatmap gather per-factor values."""
        rows = data.draw(st.integers(1, 40))
        a, m, b = draw_bilinear_operands(data, rows)
        idx = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows + 2)))
        full = rowwise_bilinear(a, m, b)
        assert np.array_equal(bits(rowwise_bilinear(a[idx], m, b[idx])), bits(full[idx]))


class TestTemplateInvariants:
    def test_exponent_length_must_match_state_dim(self):
        with pytest.raises(InvariantError):
            StcTemplate(state_dim=2, exponents=[[1]])

    def test_needs_at_least_one_term(self):
        with pytest.raises(InvariantError):
            StcTemplate(state_dim=1, exponents=np.zeros((0, 1), dtype=int))

    def test_negative_exponents_rejected(self):
        with pytest.raises(InvariantError):
            StcTemplate(state_dim=1, exponents=[[-1]])
