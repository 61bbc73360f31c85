import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import qpmetric.axioms as axioms_module
import qpmetric.corpus as corpus_module
import qpmetric.space as space_module
from qpmetric import (
    INFINITY,
    ContractionCertificate,
    GeneratorSeed,
    check_axioms,
    dump_system,
    dyadic_halving_system,
    dyadic_halving_truncated,
    enumerate_startpoints,
    halving_point,
    linear,
    minplus_closure,
    random_t0_qspace,
    random_weakly_contractive_system,
    system_document,
    user_function,
    verify_weak_contraction,
)
from qpmetric.space import FieldError

F = Fraction
ZERO = F(0)


class TestDyadicSystem:
    def test_distances_match_branch_definitions(self):
        space, _, _ = dyadic_halving_system()
        assert space.d(halving_point(1), halving_point(0)) == F(1, 2)
        assert space.d(halving_point(0), halving_point(1)) == 1
        assert space.d(ZERO, halving_point(2)) == F(1, 4)
        assert space.d(halving_point(2), ZERO) == F(1, 2)

    def test_images(self):
        _, Fm, _ = dyadic_halving_system()
        assert Fm(halving_point(3)) == (halving_point(4), ZERO)
        assert Fm(ZERO) == (ZERO,)

    def test_gamma_is_half(self):
        _, _, gamma = dyadic_halving_system()
        assert gamma(F(2)) == 1
        assert gamma.certified

    def test_zero_is_a_startpoint(self):
        from qpmetric import startpoint_defect

        space, Fm, _ = dyadic_halving_system()
        assert startpoint_defect(space, ZERO, Fm) == 0


class TestTruncation:
    def test_universe_order_and_redirect(self):
        space, Fm, _ = dyadic_halving_truncated(3)
        assert space.universe() == (
            halving_point(0),
            halving_point(1),
            halving_point(2),
            halving_point(3),
            ZERO,
        )
        assert Fm(halving_point(3)) == (ZERO,)
        assert Fm(halving_point(1)) == (halving_point(2), ZERO)

    def test_agrees_with_full_system_on_shared_points(self):
        full, _, _ = dyadic_halving_system()
        for depth in (1, 4, 7):
            trunc, _, _ = dyadic_halving_truncated(depth)
            for x in trunc.universe():
                for y in trunc.universe():
                    assert trunc.d(x, y) == full.d(x, y)

    def test_passes_axioms_with_t0(self):
        space, _, _ = dyadic_halving_truncated(10)
        report = check_axioms(space, check_t0=True)
        assert report.ok and not report.sampled

    def test_forward_certificate_at_depth_one(self):
        space, Fm, gamma = dyadic_halving_truncated(1)
        cert = verify_weak_contraction(space, Fm, gamma)
        assert isinstance(cert, ContractionCertificate)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            dyadic_halving_truncated(0)


class TestMinplusClosure:
    def test_corpus_reexports_the_space_closure(self):
        # The closure lives in space beside the triangle scan; callers that
        # import it from corpus get the same function.
        assert corpus_module.minplus_closure is space_module.minplus_closure

    def test_consistent_matrix_unchanged(self):
        m = [[F(0), F(1)], [F(0), F(0)]]
        assert minplus_closure(m) == m

    def test_shortcut_shrinks_entry(self):
        m = [[F(0), F(1), F(5)], [F(9), F(0), F(1)], [F(9), F(9), F(0)]]
        closed = minplus_closure(m)
        assert closed[0][2] == 2  # a->b->c beats the direct 5
        assert closed[0][1] == 1

    @pytest.mark.parametrize("m", [[[0, 1, 2], [1, 0, 3]], [[0, 1], [1]], [[0, 1]]])
    def test_non_square_matrix_is_rejected(self, m):
        with pytest.raises(ValueError, match="must be"):
            minplus_closure(m)

    @pytest.mark.parametrize(
        "m, field",
        [
            ([["0", "1"], ["1", "0"]], "d[0][0]"),
            ([[0, F(1, 2)], [None, 0]], "d[1][0]"),
            ([[0, 1.5, 2], [1, 0, "2"], [b"1", 1, 0]], "d[1][2]"),
            ([[0, 1], [Decimal("0.5"), 0]], "d[1][0]"),
        ],
    )
    def test_an_entry_that_is_not_a_number_is_named(self, m, field):
        # "+" would concatenate strings and "<" compare them as text.
        with pytest.raises(FieldError) as got:
            minplus_closure(m)
        assert got.value.field == field
        assert got.value.message == f"not a real number: {m[int(field[2])][int(field[5])]!r}"

    def test_entries_never_grow(self):
        import random

        rng = random.Random(1)
        m = [[F(0) if i == j else F(rng.randint(0, 20)) for j in range(6)] for i in range(6)]
        closed = minplus_closure(m)
        for i in range(6):
            for j in range(6):
                assert closed[i][j] <= m[i][j]


def _brute_force_closure(matrix):
    """Reference: Floyd-Warshall on the values themselves."""
    d = [list(row) for row in matrix]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < row[j]:
                    row[j] = via
    return d


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


ints = st.integers(min_value=0, max_value=20)
fractions = st.builds(F, st.integers(min_value=0, max_value=40), st.integers(1, 12))
floats = st.floats(min_value=0, max_value=10, allow_nan=False)
extended = st.sampled_from([INFINITY, math.nan])

CLOSURE_CASES = {
    "int": ints,
    "int-with-negatives": st.integers(min_value=-3, max_value=20),
    "fraction": fractions,
    "mixed-exact": ints | fractions,
    "float": floats | extended,
    "exact-with-extended": fractions | extended,
    "exact-with-floats": fractions | floats,
}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
@given(data=st.data())
def test_minplus_closure_matches_brute_force(case, data):
    entries = CLOSURE_CASES[case]
    n = data.draw(st.integers(min_value=0, max_value=6))
    m = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        for i in range(n):
            m[i][i] = type(m[i][i])(0)
    before = [row[:] for row in m]
    got, want = minplus_closure(m), _brute_force_closure(m)
    assert m == before
    assert len(got) == n and all(len(row) == n for row in got)
    for grow, wrow in zip(got, want):
        assert all(_same(g, w) for g, w in zip(grow, wrow))
    values = [v for row in got for v in row]
    if all(type(v) is int or isinstance(v, Fraction) for row in m for v in row):
        assert not any(isinstance(v, float) for v in values)
        if any(isinstance(v, Fraction) for row in m for v in row):
            assert all(isinstance(v, Fraction) for v in values)
        else:
            assert all(type(v) is int for v in values)


@st.composite
def lane_boundary_matrices(draw, max_size=7):
    """Nonnegative int matrices with ties and zeros whose largest entry is
    2^m - 1 or 2^m, with a zero or a drawn diagonal, below the 2^62 that
    needs lanes wider than the packed closure takes."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    m = draw(st.integers(min_value=0, max_value=61))
    top = draw(st.sampled_from([2**m - 1, 2**m]))
    entries = st.sampled_from(sorted({0, 1, 2, top // 3, top // 2, top - 1, top} - {-1}))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = top
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    return rows


@given(rows=lane_boundary_matrices())
def test_packed_closure_matches_the_loop(rows):
    _, _, w = axioms_module._kernel_rows(rows, {int})
    assert w == (2 * max(map(max, rows))).bit_length() + 1
    want = axioms_module._floyd_warshall([row[:] for row in rows])
    assert axioms_module._packed_floyd_warshall(rows, w) == want
    assert minplus_closure(rows) == want


@given(
    m=st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_packed_closure_on_fraction_matrices(m):
    want = _brute_force_closure(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms_module, "_floyd_warshall", _no_loop)
        got = minplus_closure(m)
    assert got == want and all(type(v) is Fraction for row in got for v in row)


def _no_loop(d):
    raise AssertionError("the loop must not run on this input")


def _no_packed(d, w):
    raise AssertionError("the packed closure must not run on this input")


#: Inputs the packed closure does not take, and the loop does.
FALLBACK_CLOSURE_INPUTS = {
    "float": [[0.0, 1.5, 4.0], [2.0, 0.0, 1.0], [0.5, 3.0, 0.0]],
    "negative": [[0, -1, 5], [2, 0, 1], [0, 3, 0]],
    "negative-fraction": [[F(0), F(-1, 2), 5], [2, F(0), F(1, 3)], [0, 3, F(0)]],
    "bool": [[False, True], [True, False]],
    "nan": [[0, math.nan, 4], [1, 0, 1], [0, 2, 0]],
    "infinity": [[F(0), INFINITY], [F(1, 2), F(0)]],
    "float-and-fraction": [[F(0), 0.5], [F(1, 3), F(0)]],
    "wide-lanes": [[0, 2**62, 5], [1, 0, 2**62], [2**62, 1, 0]],
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CLOSURE_INPUTS))
def test_fallback_inputs_take_the_closure_loop(case, monkeypatch):
    m = FALLBACK_CLOSURE_INPUTS[case]
    monkeypatch.setattr(axioms_module, "_packed_floyd_warshall", _no_packed)
    got, want = minplus_closure(m), _brute_force_closure(m)
    for grow, wrow in zip(got, want):
        assert all(_same(g, w) and type(g) is type(w) for g, w in zip(grow, wrow))


def test_fraction_closure_over_the_denominator_bound_takes_the_loop(monkeypatch):
    m = [[F(0), F(1, 3), F(5)], [F(9), F(0), F(1, 7)], [F(2, 5), F(9), F(0)]]
    monkeypatch.setattr(space_module, "_MAX_DENOMINATOR_BITS", 0)
    monkeypatch.setattr(axioms_module, "_packed_floyd_warshall", _no_packed)
    before = [row[:] for row in m]
    got = minplus_closure(m)
    assert m == before  # The loop relaxes a copy of the rows.
    assert got == _brute_force_closure(m) and all(type(v) is Fraction for r in got for v in r)


WEIGHT_RANGES = [(F(0), F(1)), (F(0), F(8)), (F(1, 2), F(1, 2)), (F(1), F(8))]


class TestRandomSpaces:
    @pytest.mark.parametrize("weight_range", WEIGHT_RANGES, ids=lambda r: f"{r[0]}-{r[1]}")
    def test_t0_by_construction(self, weight_range):
        for seed in range(50):
            g = GeneratorSeed(seed=seed, size=2 + seed % 11, weight_range=weight_range)
            report = check_axioms(random_t0_qspace(g), check_t0=True)
            assert report.ok, f"seed {seed}: {report}"

    def test_t0_by_construction_at_size_120(self):
        space = random_t0_qspace(GeneratorSeed(seed=1, size=120))
        assert check_axioms(space, check_t0=True).ok

    def test_one_sided_zeros_occur_and_climb_in_index(self):
        one_sided = []
        for seed in range(50):
            g = GeneratorSeed(seed=seed, size=2 + seed % 11, weight_range=(F(0), F(1)))
            space = random_t0_qspace(g)
            pts = space.universe()
            one_sided += [
                space.order[x] < space.order[y]
                for x in pts
                for y in pts
                if space.d(x, y) == 0 < space.d(y, x)
            ]
        assert one_sided and all(one_sided)

    def test_axioms_hold_for_many_seeds(self):
        for seed in range(20):
            space = random_t0_qspace(GeneratorSeed(seed=seed, size=2 + seed % 7))
            report = check_axioms(space, check_t0=True)
            assert report.ok, f"seed {seed}: {report}"
            assert space.exact and space.t0

    def test_single_asymmetric_pair_survives_closure(self):
        # On 2 points with a [0, 1] range the closure keeps the drawn pair.
        # A zero can only be drawn from p0 to p1 (one chance in 65 per seed,
        # and none of these seeds draws it); d(p1, p0) is always positive.
        for seed in range(60):
            g = GeneratorSeed(seed=seed, size=2, weight_range=(F(0), F(1)))
            space = random_t0_qspace(g)
            a, b = space.universe()
            assert space.d(b, a) > 0

    def test_determinism_bit_for_bit(self):
        g = GeneratorSeed(seed=123456789, size=9)
        doc1 = json.dumps(system_document(random_t0_qspace(g)), sort_keys=True)
        doc2 = json.dumps(system_document(random_t0_qspace(g)), sort_keys=True)
        assert doc1 == doc2

    #: (seed, size, weight_range) -> (rows, den), which a seed pins across
    #: code changes.  Seed 5's weights, 32/8 and 46/8, share the factor 2,
    #: so its den is below the grid's 8.
    PINNED_SPACES = {
        (5, 2, (F(0), F(8))): (((0, 16), (23, 0)), 4),
        (0, 3, (F(0), F(8))): (((0, 49, 53), (6, 0, 33), (58, 52, 0)), 8),
        (0, 3, (F(1, 3), F(7, 5))): (((0, 69, 73), (26, 0, 53), (83, 72, 0)), 60),
        (1, 3, (F(1, 3), F(7, 5))): (((0, 37, 28), (53, 0, 35), (84, 78, 0)), 60),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_SPACES, key=repr), ids=repr)
    def test_rows_and_den_are_pinned(self, case):
        seed, size, weight_range = case
        space = random_t0_qspace(GeneratorSeed(seed=seed, size=size, weight_range=weight_range))
        assert (space.rows, space.den) == self.PINNED_SPACES[case]

    #: SHA-256 of the document ``qpm gen --seed s --size n`` writes.
    PINNED_DOCUMENTS = {
        (1, 40): "5fa251a3676dea19504be408307aa798e5ba2b9778c6c7da0986338fda04a684",
        (1, 240): "680af0faf30e5dbf0d3807afcd1c2efa78d53b90619fa8065a8f510a77c69a30",
    }

    @pytest.mark.parametrize("seed, size", sorted(PINNED_DOCUMENTS))
    def test_generated_document_is_pinned(self, seed, size, tmp_path):
        g, gamma = GeneratorSeed(seed=seed, size=size), linear(F(1, 2))
        space, Fm = random_weakly_contractive_system(g, gamma)
        path = tmp_path / "g.json"
        dump_system(path, space, Fm, gamma, {"seed": seed, "size": size})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_DOCUMENTS[seed, size]

    def test_distinct_seeds_differ(self):
        a = system_document(random_t0_qspace(GeneratorSeed(seed=1, size=6)))
        b = system_document(random_t0_qspace(GeneratorSeed(seed=2, size=6)))
        assert a != b

    def test_all_zero_weight_range_is_rejected(self):
        # No draw from a (0, 0) range is T0, so the seed refuses it up front.
        with pytest.raises(FieldError) as info:
            GeneratorSeed(seed=5, size=3, weight_range=(ZERO, ZERO))
        assert info.value.field == "weight_range"

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            GeneratorSeed(seed=-1, size=4)
        with pytest.raises(ValueError):
            GeneratorSeed(seed=2**64, size=4)
        with pytest.raises(ValueError):
            GeneratorSeed(seed=0, size=1)
        with pytest.raises(ValueError):
            GeneratorSeed(seed=0, size=4, weight_range=(F(2), F(1)))

    @pytest.mark.parametrize("bad", [1.5, True, False, "1", 2.0, F(3), None], ids=repr)
    @pytest.mark.parametrize("field", ["seed", "size"])
    def test_an_integer_field_refuses_what_is_not_an_int(self, field, bad):
        # A bool was read as seed 0 or 1, and a float size reached the
        # generator, which failed with a bare TypeError.
        fields = {"seed": 1, "size": 3, field: bad}
        with pytest.raises(FieldError) as info:
            GeneratorSeed(**fields)
        assert info.value.field == field
        assert info.value.message == f"must be an int, got {bad!r}"


class TestRandomContractiveSystems:
    def test_forward_certificate_always(self):
        gamma = linear(F(1, 2))
        for seed in range(15):
            space, Fm = random_weakly_contractive_system(
                GeneratorSeed(seed=seed, size=3 + seed % 8), gamma
            )
            cert = verify_weak_contraction(space, Fm, gamma)
            assert isinstance(cert, ContractionCertificate), f"seed {seed}"

    def test_sink_is_a_startpoint(self):
        for seed in range(15):
            space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=seed, size=6))
            starts = enumerate_startpoints(space, Fm)
            assert starts
            sinks = [x for x in space.universe() if Fm(x) == (x,)]
            assert sinks and all(s in starts for s in sinks)

    def test_every_image_contains_the_sink(self):
        space, Fm = random_weakly_contractive_system(GeneratorSeed(seed=8, size=8))
        (sink,) = [x for x in space.universe() if Fm(x) == (x,)]
        for x in space.universe():
            assert sink in Fm(x)

    def test_determinism_with_map(self):
        g = GeneratorSeed(seed=31415, size=7)
        s1, f1 = random_weakly_contractive_system(g)
        s2, f2 = random_weakly_contractive_system(g)
        d1 = json.dumps(system_document(s1, f1), sort_keys=True)
        d2 = json.dumps(system_document(s2, f2), sort_keys=True)
        assert d1 == d2

    def test_bad_gamma_rejected_by_precondition(self):
        g = GeneratorSeed(seed=2, size=4)
        with pytest.raises(ValueError, match=r"\(g1\)"):
            random_weakly_contractive_system(g, user_function(lambda t: t * t))
