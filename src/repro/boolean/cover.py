"""Covers: sums of cubes (two-level SOP forms) with set-like operations.

A :class:`Cover` is a list of :class:`~repro.boolean.cube.Cube` objects over a
declared variable universe.  The universe matters for complementation,
tautology checking and minterm counting; cube-wise operations (union,
intersection, containment) do not need it.

Containment and tautology use the unate-recursive paradigm (Shannon expansion
with unate-reduction shortcuts), which keeps the region-cover checks of the
synthesis flow well below minterm enumeration cost.  The recursion runs
entirely on the bit-packed ``(care, value)`` form of the cubes (see
:mod:`repro.boolean.interning`), so cofactoring and unate detection are plain
integer operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Optional

from repro.boolean.cube import Cube
from repro.boolean.interning import _VAR_INDEX, mask_of_tuple


class Cover:
    """A sum-of-products form over a fixed variable universe."""

    __slots__ = ("_cubes", "_variables", "_mask")

    def __init__(self, cubes: Iterable[Cube] = (), variables: Iterable[str] = ()):
        self._cubes: list[Cube] = list(cubes)
        declared = tuple(variables)
        mask = mask_of_tuple(declared) if declared else 0
        if mask.bit_count() != len(declared):
            declared = tuple(dict.fromkeys(declared))
        cube_mask = 0
        for cube in self._cubes:
            cube_mask |= cube._care
        if cube_mask & ~mask:
            # Extend the universe with undeclared variables, in first-seen
            # cube order (matching the historical dict-based behaviour).
            universe = set(declared)
            extra: list[str] = []
            for cube in self._cubes:
                if not cube._care & ~mask:
                    continue
                for var in cube._literals:
                    if var not in universe:
                        universe.add(var)
                        extra.append(var)
            declared = declared + tuple(extra)
            mask |= cube_mask
        self._variables: tuple[str, ...] = declared
        self._mask = mask

    @classmethod
    def _make(cls, cubes: list[Cube], variables: tuple[str, ...], mask: int) -> "Cover":
        """Internal fast constructor; cube supports must be within ``mask``."""
        self = cls.__new__(cls)
        self._cubes = cubes
        self._variables = variables
        self._mask = mask
        return self

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, variables: Iterable[str] = ()) -> "Cover":
        """The empty (constant-0) cover."""
        return cls((), variables)

    @classmethod
    def universe(cls, variables: Iterable[str] = ()) -> "Cover":
        """The constant-1 cover."""
        return cls((Cube.universal(),), variables)

    @classmethod
    def from_strings(cls, patterns: Iterable[str], variables: Sequence[str]) -> "Cover":
        """Build a cover from positional-cube strings."""
        cubes = [Cube.from_string(pattern, variables) for pattern in patterns]
        return cls(cubes, variables)

    @classmethod
    def from_vertices(
        cls, vertices: Iterable[Mapping[str, int]], variables: Sequence[str]
    ) -> "Cover":
        """Build a cover of minterms from complete assignments."""
        cubes = [Cube({v: vertex[v] for v in variables}) for vertex in vertices]
        return cls(cubes, variables)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    @property
    def cubes(self) -> list[Cube]:
        """A copy of the cube list."""
        return list(self._cubes)

    @property
    def variables(self) -> tuple[str, ...]:
        """The variable universe of the cover."""
        return self._variables

    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __bool__(self) -> bool:
        return bool(self._cubes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.contains_cover(other) and other.contains_cover(self)

    def __reduce__(self):
        # Rebuild from cubes + variable names so that the packed per-cube
        # masks are re-derived in the unpickling process's interner order.
        return (Cover, (self._cubes, self._variables))

    def __repr__(self) -> str:
        if not self._cubes:
            return "Cover(0)"
        return "Cover(" + " + ".join(cube.to_expression() for cube in self._cubes) + ")"

    def to_expression(self) -> str:
        """Human readable SOP string."""
        if not self._cubes:
            return "0"
        return " + ".join(cube.to_expression() for cube in self._cubes)

    def to_strings(self, variables: Optional[Sequence[str]] = None) -> list[str]:
        """Positional-cube strings for every cube."""
        order = list(variables) if variables is not None else list(self._variables)
        return [cube.to_string(order) for cube in self._cubes]

    def to_json(self) -> dict:
        """JSON-serializable form: the declared universe plus cube literals.

        Cube order and the declared variable order are both preserved, so
        the round-trip is structurally lossless (not merely semantically
        equivalent); packed masks are re-derived on load in the reader's
        interner order.
        """
        return {
            "variables": list(self._variables),
            "cubes": [cube.to_json() for cube in self._cubes],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Cover":
        """Rebuild a cover from :meth:`to_json` output."""
        return cls(
            [Cube.from_json(cube) for cube in data.get("cubes", ())],
            data.get("variables", ()),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_empty(self) -> bool:
        """True if the cover has no cubes (constant 0)."""
        return not self._cubes

    def covers_vertex(self, vertex: Mapping[str, int]) -> bool:
        """True if some cube of the cover covers the complete assignment."""
        return any(cube.covers_vertex(vertex) for cube in self._cubes)

    def covers_cube(self, cube: Cube) -> bool:
        """True if the cover contains every vertex of ``cube``.

        Implemented as a tautology check of the cover cofactored by the cube.
        """
        care = cube._care
        value = cube._value
        cofactored: list[tuple[int, int]] = []
        for other in self._cubes:
            other_care = other._care
            if (other._value ^ value) & other_care & care:
                continue  # disjoint from the cube
            if not other_care & ~care:
                return True  # cofactor is universal: single-cube containment
            cofactored.append((other_care & ~care, other._value & ~care))
        if not cofactored:
            return False
        return _is_tautology_packed(cofactored)

    def contains_cover(self, other: "Cover") -> bool:
        """True if every vertex of ``other`` is covered by this cover."""
        return all(self.covers_cube(cube) for cube in other)

    def intersects_cube(self, cube: Cube) -> bool:
        """True if the cover shares at least one vertex with ``cube``."""
        care = cube._care
        value = cube._value
        for other in self._cubes:
            if not (other._value ^ value) & other._care & care:
                return True
        return False

    def intersects_cover(self, other: "Cover") -> bool:
        """True if the two covers share at least one vertex."""
        return any(self.intersects_cube(cube) for cube in other)

    def num_literals(self) -> int:
        """Total literal count of the SOP form."""
        return sum(len(cube._literals) for cube in self._cubes)

    def support(self) -> frozenset[str]:
        """Union of the supports of all cubes."""
        result: set[str] = set()
        for cube in self._cubes:
            result |= cube.support
        return frozenset(result)

    def count_minterms(self) -> int:
        """Exact number of minterms over the declared variable universe.

        Uses recursive Shannon expansion; exponential in the worst case but
        adequate for the region sizes handled in the test-suite.
        """
        pairs = [(cube._care, cube._value) for cube in self._cubes]
        return _count_minterms_packed(pairs, self._mask, len(self._variables))

    def is_tautology(self) -> bool:
        """True if the cover covers the whole Boolean space of its universe."""
        if not self._cubes:
            return False
        return _is_tautology_packed([(cube._care, cube._value) for cube in self._cubes])

    # ------------------------------------------------------------------ #
    # Algebraic operations
    # ------------------------------------------------------------------ #

    def add_cube(self, cube: Cube) -> "Cover":
        """Cover with one more cube (single-cube containment removed)."""
        for other in self._cubes:
            if other.covers(cube):
                return self
        kept = [other for other in self._cubes if not cube.covers(other)]
        kept.append(cube)
        if cube._care & ~self._mask:
            return Cover(kept, self._variables)
        return Cover._make(kept, self._variables, self._mask)

    def union(self, other: "Cover") -> "Cover":
        """Disjunction of two covers (with single-cube containment removal)."""
        variables, mask = self._merged_universe(other)
        kept = list(self._cubes)
        for cube in other._cubes:
            covered = False
            for own in kept:
                if own.covers(cube):
                    covered = True
                    break
            if covered:
                continue
            kept = [own for own in kept if not cube.covers(own)]
            kept.append(cube)
        return Cover._make(kept, variables, mask)

    @classmethod
    def union_all(cls, covers: Iterable["Cover"], variables: Iterable[str] = ()) -> "Cover":
        """Disjunction of many covers in one containment pass.

        Equal, cube for cube and in order, to folding :meth:`union` over
        ``covers`` starting from ``Cover.empty(variables)``: the cubes no
        other cube covers, the first copy of equal cubes, in arrival order.
        The fold re-scans the kept cubes for every cube it adds; this gathers
        all cubes first and runs :func:`_uncontained` once.
        """
        result = cls.empty(variables)
        cubes: list[Cube] = []
        for cover in covers:
            result._variables, result._mask = result._merged_universe(cover)
            cubes.extend(cover._cubes)
        kept = sorted(_uncontained([(cube._care, cube._value) for cube in cubes]))
        result._cubes = [cubes[i] for i in kept]
        return result

    def __or__(self, other: "Cover") -> "Cover":
        return self.union(other)

    def intersection(self, other: "Cover") -> "Cover":
        """Conjunction of two covers (pairwise cube products)."""
        variables, mask = self._merged_universe(other)
        products: list[Cube] = []
        for left in self._cubes:
            for right in other._cubes:
                product = left.intersect(right)
                if product is not None:
                    products.append(product)
        return Cover._make(products, variables, mask).remove_contained()

    def __and__(self, other: "Cover") -> "Cover":
        return self.intersection(other)

    def intersect_cube(self, cube: Cube) -> "Cover":
        """Conjunction of the cover with a single cube."""
        if cube._care & ~self._mask:
            return _reference_intersect_cube(self, cube)
        terms = _cleaned(_anded(self._cubes, cube))
        return Cover._make(_cubes_of(terms), self._variables, self._mask)

    def sharp_cube(self, cube: Cube) -> "Cover":
        """Difference ``cover \\ cube`` (sharp operation)."""
        if cube._care & ~self._mask:
            return _reference_sharp_cube(self, cube)
        terms = _cleaned(_sharped(_terms_of(self._cubes), cube))
        return Cover._make(_cubes_of(terms), self._variables, self._mask)

    def sharp(self, other: "Cover") -> "Cover":
        """Difference ``cover \\ other``."""
        return self.anchored_sharp(None, (other,))

    def anchored_sharp(self, anchor: Optional[Cube], others: Iterable["Cover"]) -> "Cover":
        """``self.intersect_cube(anchor)``, then ``.sharp(other)`` for each of ``others``.

        One packed run, equal cube for cube to the chained calls (no
        intersection when ``anchor`` is ``None``): every step works on
        ``(care, value)`` terms and a :class:`Cube` is built only for a term
        that survives the whole chain.
        """
        others = list(others)
        mask = self._mask
        if (anchor is not None and anchor._care & ~mask) or any(
            cube._care & ~mask for other in others for cube in other._cubes
        ):
            # the universe grows on the way: take the cube-by-cube path
            result = self if anchor is None else _reference_intersect_cube(self, anchor)
            for other in others:
                result = _reference_sharp(result, other)
            return result
        if anchor is None:
            terms = _terms_of(self._cubes)
        else:
            terms = _cleaned(_anded(self._cubes, anchor))
        for other in others:
            for cube in other._cubes:
                if not terms:
                    break
                terms = _cleaned(_sharped(terms, cube))
        return Cover._make(_cubes_of(terms), self._variables, mask)

    def __sub__(self, other: "Cover") -> "Cover":
        return self.sharp(other)

    def complement(self) -> "Cover":
        """Complement of the cover over its variable universe."""
        return Cover.universe(self._variables).sharp(self)

    def remove_contained(self) -> "Cover":
        """Remove cubes that are single-cube contained in another cube.

        The kept cubes are ordered by literal count (stable); of equal cubes
        the first copy is kept.
        """
        cubes = self._cubes
        if len(cubes) < 2:
            return Cover._make(list(cubes), self._variables, self._mask)
        kept = _uncontained([(cube._care, cube._value) for cube in cubes])
        return Cover._make([cubes[i] for i in kept], self._variables, self._mask)

    def restrict(self, variables: Iterable[str]) -> "Cover":
        """Project every cube onto a subset of variables (existential)."""
        allowed = list(variables)
        return Cover([cube.restrict(allowed) for cube in self._cubes], allowed)

    def cofactor(self, variable: str, value: int) -> "Cover":
        """Shannon cofactor of the cover."""
        reduced = []
        for cube in self._cubes:
            item = cube.cofactor(variable, value)
            if item is not None:
                reduced.append(item)
        remaining = tuple(v for v in self._variables if v != variable)
        return Cover(reduced, remaining)

    def with_variables(self, variables: Iterable[str]) -> "Cover":
        """Return the same cover declared over a (larger) variable universe."""
        return Cover(self._cubes, variables)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _merged_universe(self, other: "Cover") -> tuple[tuple[str, ...], int]:
        """Universe (variables, mask) of a binary operation's result."""
        if not other._mask & ~self._mask:
            return self._variables, self._mask
        seen = set(self._variables)
        variables = self._variables + tuple(
            v for v in other._variables if v not in seen
        )
        return variables, self._mask | other._mask


# ---------------------------------------------------------------------- #
# Packed cube chains
#
# The region covers of the structural flow chain containment, intersection
# and sharp steps over covers of hundreds of cubes.  These helpers run such a
# chain on packed *terms* ``(care, value, base, extra)``: ``base`` is the
# input cube the term came from and ``extra`` the cubes conjoined onto it
# since, as ``(cube, index)`` pairs: the whole cube for ``index < 0``, else
# the ``index``-th cube of its complement (see ``Cube.complement_cubes``).
# ``_cubes_of`` builds a Cube only for the terms left at the end, with its
# literals in the order the step-by-step Cube operations give them.
# ---------------------------------------------------------------------- #

#: covers of at most this many cubes are cleaned by scanning the kept cubes;
#: bucketing by care mask only pays on larger ones (2-4-literal cubes over
#: 130 variables break even near 30 cubes; on covers over 10 variables the
#: scan is still the faster at 50)
_SCAN_MAX = 32


def _uncontained(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the packed cubes that no other cube of ``pairs`` covers.

    Sorted by literal count (stable), and of equal cubes only the first
    survives: the order of :meth:`Cover.remove_contained`.  A cube can only
    be covered by one with fewer literals or by an earlier copy of itself,
    so every cube is checked against the cubes kept before it.  On larger
    inputs the kept cubes are bucketed by care mask: a cube is checked only
    against the masks that are subsets of its own care, by one set lookup of
    its value under the mask.  Those masks are found by walking the kept
    masks or, when fewer, the subsets of the cube's care.
    """
    if len(pairs) < 2:
        return list(range(len(pairs)))
    counts = [pair[0].bit_count() for pair in pairs]
    order = sorted(range(len(pairs)), key=counts.__getitem__)
    kept: list[int] = []
    if len(pairs) <= _SCAN_MAX:
        kept_pairs: list[tuple[int, int]] = []
        for i in order:
            care, value = pairs[i][0], pairs[i][1]
            for other_care, other_value in kept_pairs:
                if not other_care & ~care and not (other_value ^ value) & other_care:
                    break
            else:
                kept.append(i)
                kept_pairs.append((care, value))
        return kept
    buckets: dict[int, set[int]] = {}
    for i in order:
        care, value = pairs[i][0], pairs[i][1]
        if _bucket_covers(buckets, care, value, counts[i]):
            continue
        values = buckets.get(care)
        if values is None:
            buckets[care] = {value}
        else:
            values.add(value)
        kept.append(i)
    return kept


def _bucket_covers(buckets: dict[int, set[int]], care: int, value: int, literals: int) -> bool:
    """True if a cube of ``buckets`` (care mask -> values) covers ``(care, value)``."""
    if len(buckets) > 1 << literals:
        mask = care
        while True:
            values = buckets.get(mask)
            if values is not None and value & mask in values:
                return True
            if not mask:
                return False
            mask = (mask - 1) & care
    for mask, values in buckets.items():
        if not mask & ~care and value & mask in values:
            return True
    return False


def _terms_of(cubes: Iterable[Cube]) -> list[tuple]:
    return [(cube._care, cube._value, cube, ()) for cube in cubes]


def _cleaned(terms: list[tuple]) -> list[tuple]:
    """``remove_contained`` on terms."""
    if len(terms) < 2:
        return terms
    return [terms[i] for i in _uncontained(terms)]


def _anded(cubes: list[Cube], cube: Cube) -> list[tuple]:
    """Terms of the products of ``cubes`` with ``cube`` (``intersect_cube`` uncleaned)."""
    care = cube._care
    value = cube._value
    extra = ((cube, -1),)
    return [
        (own._care | care, own._value | value, own, extra)
        for own in cubes
        if not (own._value ^ value) & own._care & care
    ]


def _sharped(terms: list[tuple], cube: Cube) -> list[tuple]:
    """``terms \\ cube`` (``Cover.sharp_cube`` uncleaned).

    A term disjoint from the cube is kept; one the cube covers is dropped;
    any other is split over the complement pieces of the cube.  The term
    agrees with the cube on every literal they share, so the ``i``-th piece
    (the first ``i`` literals, then the ``i``-th one flipped) misses the term
    exactly when the term binds the ``i``-th variable.
    """
    care = cube._care
    value = cube._value
    bits = [1 << _VAR_INDEX[var] for var in cube._literals]
    result: list[tuple] = []
    for term in terms:
        own_care, own_value, base, extra = term
        if (own_value ^ value) & own_care & care:
            result.append(term)
            continue
        if not care & ~own_care:
            continue
        prefix = 0
        for index, bit in enumerate(bits):
            if not bit & own_care:
                piece_care = prefix | bit
                result.append(
                    (
                        own_care | piece_care,
                        own_value | (value & prefix) | (~value & bit),
                        base,
                        extra + ((cube, index),),
                    )
                )
            prefix |= bit
    return result


def _cubes_of(terms: list[tuple]) -> list[Cube]:
    cubes: list[Cube] = []
    for care, value, base, extra in terms:
        if not extra:
            cubes.append(base)
            continue
        literals = dict(base._literals)
        for cube, index in extra:
            if index < 0:
                literals.update(cube._literals)
                continue
            for position, (var, bound) in enumerate(cube._literals.items()):
                if position == index:
                    literals[var] = 1 - bound
                    break
                literals[var] = bound
        cubes.append(Cube._raw(literals, care, value))
    return cubes


# ---------------------------------------------------------------------- #
# Reference cover operations
#
# The cube-by-cube implementations the packed chains replaced, kept as the
# oracles of the differential tests (``tests/test_boolean_cover.py``) and for
# the rare operations that grow the variable universe.
# ---------------------------------------------------------------------- #


def _reference_union_fold(covers: Iterable[Cover], variables: Iterable[str] = ()) -> Cover:
    """:meth:`Cover.union` folded over ``covers`` from ``Cover.empty(variables)``."""
    result = Cover.empty(variables)
    for cover in covers:
        result = result.union(cover)
    return result


def _reference_remove_contained(cover: Cover) -> Cover:
    """Single-cube containment removal by pairwise ``Cube.covers`` calls."""
    kept: list[Cube] = []
    for cube in sorted(cover._cubes, key=Cube.num_literals):
        if not any(other.covers(cube) for other in kept):
            kept.append(cube)
    return Cover._make(kept, cover._variables, cover._mask)


def _reference_intersect_cube(cover: Cover, cube: Cube) -> Cover:
    products = []
    for other in cover._cubes:
        product = other.intersect(cube)
        if product is not None:
            products.append(product)
    if cube._care & ~cover._mask:
        return _reference_remove_contained(Cover(products, cover._variables))
    return _reference_remove_contained(Cover._make(products, cover._variables, cover._mask))


def _reference_sharp_cube(cover: Cover, cube: Cube) -> Cover:
    result: list[Cube] = []
    for own in cover._cubes:
        if not own.intersects(cube):
            result.append(own)
            continue
        if cube.covers(own):
            continue
        for piece in cube.complement_cubes():
            product = own.intersect(piece)
            if product is not None:
                result.append(product)
    if cube._care & ~cover._mask:
        return _reference_remove_contained(Cover(result, cover._variables))
    return _reference_remove_contained(Cover._make(result, cover._variables, cover._mask))


def _reference_sharp(cover: Cover, other: Cover) -> Cover:
    result = cover
    for cube in other:
        result = _reference_sharp_cube(result, cube)
        if result.is_empty():
            break
    return result


# ---------------------------------------------------------------------- #
# Unate-recursive helpers (bit-packed)
# ---------------------------------------------------------------------- #


def _is_tautology_packed(pairs: list[tuple[int, int]]) -> bool:
    """Tautology check by Shannon expansion on packed ``(care, value)`` pairs.

    Unate reduction: a variable is a candidate split only when it appears with
    both polarities (its bit is set in some value mask and cleared in some
    care-bound position); if no variable is binate the cover is a tautology
    only if it contains the universal cube.
    """
    ones = 0
    zeros = 0
    for care, value in pairs:
        if care == 0:
            return True
        ones |= value
        zeros |= care & ~value
    if not pairs:
        return False
    binate = ones & zeros
    if binate == 0:
        # Every bound variable is unate: tautology iff some universal cube,
        # which was already checked above.
        return False
    bit = binate & -binate
    for branch_value in (0, bit):
        branch: list[tuple[int, int]] = []
        for care, value in pairs:
            if care & bit:
                if value & bit == branch_value:
                    branch.append((care ^ bit, value & ~bit))
            else:
                branch.append((care, value))
        if not _is_tautology_packed(branch):
            return False
    return True


def _count_minterms_packed(
    pairs: list[tuple[int, int]], universe_mask: int, num_vars: int
) -> int:
    """Count minterms of packed cubes over a ``universe_mask`` of variables."""
    if not pairs:
        return 0
    bound = 0
    for care, _ in pairs:
        if care == 0:
            return 1 << num_vars
        bound |= care
    if len(pairs) == 1:
        free = num_vars - (pairs[0][0] & universe_mask).bit_count()
        return 1 << free
    split = bound & universe_mask
    if split == 0:
        # No cube depends on the remaining variables.
        return 1 << num_vars
    bit = split & -split
    rest_mask = universe_mask & ~bit
    total = 0
    for branch_value in (0, bit):
        branch: list[tuple[int, int]] = []
        for care, value in pairs:
            if care & bit:
                if value & bit == branch_value:
                    branch.append((care ^ bit, value & ~bit))
            else:
                branch.append((care, value))
        total += _count_minterms_packed(branch, rest_mask, num_vars - 1)
    return total
