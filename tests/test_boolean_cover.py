"""Unit and property-based tests of covers and the two-level minimizer."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import expand_cover, irredundant_cover, minimize_cover, single_cube_cover
from repro.boolean.cost import literal_count, sop_transistor_estimate, transistor_estimate

VARS = ["a", "b", "c", "d"]


def _all_vertices(variables=VARS):
    for index in range(1 << len(variables)):
        yield {v: (index >> i) & 1 for i, v in enumerate(variables)}


def cover_strategy():
    cube = st.dictionaries(
        st.sampled_from(VARS), st.integers(min_value=0, max_value=1), max_size=4
    ).map(Cube)
    return st.lists(cube, max_size=5).map(lambda cubes: Cover(cubes, VARS))


class TestCoverBasics:
    def test_empty_and_universe(self):
        assert Cover.empty(VARS).is_empty()
        assert Cover.universe(VARS).is_tautology()
        assert not Cover.empty(VARS).is_tautology()

    def test_from_strings(self):
        cover = Cover.from_strings(["1--0", "01--"], VARS)
        assert len(cover) == 2
        assert cover.covers_vertex({"a": 1, "b": 0, "c": 1, "d": 0})

    def test_union_removes_contained_cubes(self):
        big = Cover([Cube({"a": 1})], VARS)
        small = Cover([Cube({"a": 1, "b": 0})], VARS)
        assert len(big.union(small)) == 1

    def test_intersection(self):
        left = Cover([Cube({"a": 1})], VARS)
        right = Cover([Cube({"b": 0})], VARS)
        product = left.intersection(right)
        for vertex in _all_vertices():
            assert product.covers_vertex(vertex) == (vertex["a"] == 1 and vertex["b"] == 0)

    def test_sharp_is_set_difference(self):
        left = Cover([Cube({"a": 1})], VARS)
        right = Cover([Cube({"b": 1})], VARS)
        difference = left.sharp(right)
        for vertex in _all_vertices():
            expected = vertex["a"] == 1 and vertex["b"] == 0
            assert difference.covers_vertex(vertex) == expected

    def test_complement(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 0, "c": 1})], VARS)
        complement = cover.complement()
        for vertex in _all_vertices():
            assert complement.covers_vertex(vertex) != cover.covers_vertex(vertex)

    def test_covers_cube_via_multiple_cubes(self):
        cover = Cover([Cube({"a": 1, "b": 1}), Cube({"a": 1, "b": 0})], VARS)
        assert cover.covers_cube(Cube({"a": 1}))
        assert not cover.covers_cube(Cube({}))

    def test_count_minterms(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 0, "b": 1})], VARS)
        assert cover.count_minterms() == 8 + 4

    def test_restrict_projects_support(self):
        cover = Cover([Cube({"a": 1, "c": 0})], VARS)
        projected = cover.restrict(["a", "b"])
        assert projected.support() == frozenset({"a"})


class TestMinimizer:
    def test_expand_drops_redundant_literals(self):
        on_set = Cover([Cube({"a": 1, "b": 1, "c": 0})], VARS)
        off_set = Cover([Cube({"a": 0})], VARS)
        expanded = expand_cover(on_set, off_set)
        assert expanded.num_literals() == 1
        assert expanded.covers_cube(Cube({"a": 1}))

    def test_minimize_preserves_on_set_and_avoids_off_set(self):
        on_set = Cover.from_strings(["110-", "111-"], VARS)
        off_set = Cover.from_strings(["0---", "10--"], VARS)
        result = minimize_cover(on_set, off_set)
        assert result.contains_cover(on_set)
        assert not result.intersects_cover(off_set)

    def test_irredundant_removes_duplicate_cubes(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 1, "b": 1})], VARS)
        reduced = irredundant_cover(cover)
        assert len(reduced) == 1

    def test_single_cube_cover(self):
        on_set = Cover.from_strings(["110-", "100-"], VARS)
        off_set = Cover.from_strings(["0---"], VARS)
        cube = single_cube_cover(on_set, off_set)
        assert cube == Cube({"a": 1, "c": 0})
        blocked = single_cube_cover(on_set, Cover.from_strings(["1-01"], VARS))
        assert blocked is None

    @given(cover_strategy(), cover_strategy())
    @settings(max_examples=40, deadline=None)
    def test_minimize_is_correct_for_disjoint_sets(self, on_set, noise):
        off_set = noise.sharp(on_set)
        result = minimize_cover(on_set, off_set)
        assert result.contains_cover(on_set)
        assert not result.intersects_cover(off_set)

    @given(cover_strategy())
    @settings(max_examples=40, deadline=None)
    def test_complement_partitions_space(self, cover):
        complement = cover.complement()
        assert not complement.intersects_cover(cover)
        assert complement.union(cover).is_tautology() or cover.is_empty() and complement.is_tautology()


class TestBooleanFunction:
    def test_consistency_and_correct_cover(self):
        on_set = Cover.from_strings(["11--"], VARS)
        off_set = Cover.from_strings(["00--"], VARS)
        function = BooleanFunction(on_set, off_set, variables=VARS, name="f")
        assert function.is_consistent()
        assert function.is_complete()
        assert function.evaluate({"a": 1, "b": 1, "c": 0, "d": 0}) == 1
        assert function.evaluate({"a": 0, "b": 0, "c": 0, "d": 0}) == 0
        assert function.evaluate({"a": 1, "b": 0, "c": 0, "d": 0}) is None
        assert function.is_correct_cover(Cover.from_strings(["11--", "10--"], VARS))
        assert not function.is_correct_cover(Cover.from_strings(["10--"], VARS))

    def test_cost_models(self):
        cover = Cover.from_strings(["11--", "1-1-"], VARS)
        assert literal_count(cover) == 4
        assert sop_transistor_estimate(cover) == 2 * 4 + 2 * 2
        assert transistor_estimate([cover], memory_elements=1) == 12 + 8


# ---------------------------------------------------------------------- #
# Differential tests: packed containment pass and cube chains vs the
# retained cube-by-cube reference operations
# ---------------------------------------------------------------------- #

import random  # noqa: E402

from repro.boolean.cover import (  # noqa: E402
    _SCAN_MAX,
    _reference_intersect_cube,
    _reference_remove_contained,
    _reference_sharp,
    _reference_sharp_cube,
    _reference_union_fold,
)

WIDE = [f"w{i}" for i in range(9)]


def _sequence(cover):
    """Cube order, packed masks and literal order: the full observable form."""
    return [(cube.care_mask, cube.value_mask, tuple(cube.items())) for cube in cover]


def _random_cube(rng, variables, max_literals):
    chosen = rng.sample(variables, rng.randint(0, min(max_literals, len(variables))))
    return Cube({var: rng.randint(0, 1) for var in chosen})


def _random_cover(rng, variables, size, max_literals):
    cubes = [_random_cube(rng, variables, max_literals) for _ in range(size)]
    # duplicates and near-duplicates exercise the first-copy rule
    for _ in range(size // 4):
        cubes.insert(rng.randrange(len(cubes) + 1), rng.choice(cubes) if cubes else Cube())
    return Cover(cubes, variables)


#: sizes on both sides of the scan/bucket switch
SIZES = (0, 1, 2, 3, _SCAN_MAX, _SCAN_MAX + 1, 30, 80)


class TestPackedContainmentPass:
    def test_remove_contained_matches_reference(self):
        rng = random.Random(20261018)
        for case in range(300):
            size = SIZES[case % len(SIZES)]
            cover = _random_cover(rng, WIDE, size, max_literals=1 + case % 6)
            assert _sequence(cover.remove_contained()) == _sequence(
                _reference_remove_contained(cover)
            ), case

    def test_union_all_matches_union_fold(self):
        rng = random.Random(7)
        for case in range(300):
            covers = [
                _random_cover(rng, WIDE, rng.choice(SIZES[:6]), max_literals=1 + case % 5)
                for _ in range(rng.randint(0, 12))
            ]
            gathered = Cover.union_all(covers, WIDE)
            folded = _reference_union_fold(covers, WIDE)
            assert _sequence(gathered) == _sequence(folded), case
            assert gathered.variables == folded.variables

    def test_union_all_extends_the_universe_like_the_fold(self):
        covers = [Cover([Cube({"a": 1})], ["a"]), Cover([Cube({"z": 0, "a": 1})], ["z", "a"])]
        assert Cover.union_all(covers, ["b"]).variables == _reference_union_fold(
            covers, ["b"]
        ).variables

    def test_intersect_and_sharp_match_reference(self):
        rng = random.Random(99)
        for case in range(300):
            cover = _random_cover(rng, WIDE, SIZES[case % len(SIZES)], max_literals=4)
            cube = _random_cube(rng, WIDE, max_literals=3)
            assert _sequence(cover.intersect_cube(cube)) == _sequence(
                _reference_intersect_cube(cover, cube)
            ), case
            assert _sequence(cover.sharp_cube(cube)) == _sequence(
                _reference_sharp_cube(cover, cube)
            ), case
            other = _random_cover(rng, WIDE, rng.randint(0, 4), max_literals=4)
            assert _sequence(cover.sharp(other)) == _sequence(
                _reference_sharp(cover, other)
            ), case

    def test_anchored_sharp_matches_the_chained_operations(self):
        rng = random.Random(5)
        for case in range(200):
            cover = _random_cover(rng, WIDE, SIZES[case % len(SIZES)], max_literals=3)
            anchor = _random_cube(rng, WIDE, max_literals=1) if case % 3 else None
            others = [
                _random_cover(rng, WIDE, rng.randint(0, 3), max_literals=5)
                for _ in range(rng.randint(0, 3))
            ]
            expected = cover if anchor is None else _reference_intersect_cube(cover, anchor)
            for other in others:
                expected = _reference_sharp(expected, other)
            assert _sequence(cover.anchored_sharp(anchor, others)) == _sequence(expected), case

    def test_operations_that_grow_the_universe(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 0})], ["a", "b"])
        cube = Cube({"x": 1, "a": 1})
        assert cover.sharp_cube(cube).variables == ("a", "b", "x")
        assert _sequence(cover.sharp_cube(cube)) == _sequence(_reference_sharp_cube(cover, cube))
        assert _sequence(cover.anchored_sharp(cube, [])) == _sequence(
            _reference_intersect_cube(cover, cube)
        )
