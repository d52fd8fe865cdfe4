"""Place invariants (P-semiflows) of a Petri net.

SM-components of live and safe free-choice nets correspond to minimal place
semiflows with 0/1 coefficients whose induced subnet is a strongly connected
state machine (Hack's theorem, referenced in Section II-B).  This module
computes minimal semiflows with the classic Farkas / Fourier–Motzkin
elimination on the incidence matrix, which the SM-cover computation then
filters.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from math import gcd
from typing import Optional

from repro.petri.net import PetriNet


def incidence_matrix(net: PetriNet) -> tuple[list[str], list[str], list[list[int]]]:
    """The incidence matrix C (places x transitions) of the net.

    ``C[p][t] = F(t, p) - F(p, t)`` for the arc-weight-1 nets used here.
    """
    places = net.places
    transitions = net.transitions
    place_index = {p: i for i, p in enumerate(places)}
    matrix = [[0] * len(transitions) for _ in places]
    for j, transition in enumerate(transitions):
        for place in net.preset(transition):
            matrix[place_index[place]][j] -= 1
        for place in net.postset(transition):
            matrix[place_index[place]][j] += 1
    return places, transitions, matrix


def _normalize(vector: Sequence[int]) -> tuple[int, ...]:
    divisor = 0
    for value in vector:
        divisor = gcd(divisor, value)
    if divisor in (0, 1):
        return tuple(vector)
    return tuple(value // divisor for value in vector)


def place_invariants(
    net: PetriNet,
    max_rows: Optional[int] = 200_000,
) -> list[dict[str, int]]:
    """All minimal-support non-negative place invariants (P-semiflows).

    Implements the Farkas algorithm: starting from ``[C | I]``, transitions
    (columns of C) are eliminated one at a time by combining rows with
    positive and negative entries; rows with non-minimal support are pruned
    after every elimination step.

    Parameters
    ----------
    max_rows:
        Safety bound on the intermediate row count (raises ``RuntimeError``
        when exceeded), protecting the scalable benchmarks from pathological
        blow-up.

    The result is memoised on the net keyed by its structural ``_version``
    (and the ``max_rows`` bound), so the repeated refinement queries of the
    SM-cover search (:func:`repro.petri.smcover.find_sm_component_containing`
    callers re-enter here once per uncovered place) reuse one Farkas fixed
    point.  Callers receive fresh dicts; the cached rows are never exposed.
    """
    version = getattr(net, "_version", None)
    cache_key = (version, max_rows)
    cached = getattr(net, "_invariants_cache", None)
    if cached is not None and cached[0] == cache_key:
        return [dict(invariant) for invariant in cached[1]]
    invariants = _compute_place_invariants(net, max_rows)
    try:
        net._invariants_cache = (cache_key, invariants)
    except AttributeError:
        pass  # net-like object without attribute support; skip caching
    return [dict(invariant) for invariant in invariants]


def _compute_place_invariants(
    net: PetriNet,
    max_rows: Optional[int],
) -> list[dict[str, int]]:
    """Uncached Farkas elimination (see :func:`place_invariants`).

    The next transition eliminated is the one whose column combines the
    fewest row pairs (smallest ``|positive|·|negative|``, then lowest
    index), with the per-column counts kept up to date as rows come and go.
    The intermediate row counts, and so the cost, then no longer hang on the
    order the places and transitions are declared in: a net parsed from
    ``.g`` text and the same net built in memory differ only in that order.
    The minimal semiflows do not depend on the elimination order either;
    they are returned sorted by the sorted place names of their supports, so
    both nets list them, and the SM-components built from them, alike.
    """
    places, transitions, matrix = incidence_matrix(net)
    rows = _initial_rows(matrix)
    columns = range(len(transitions))
    positive_count = [0] * len(transitions)
    negative_count = [0] * len(transitions)
    products = [0] * len(transitions)

    def count(changed: list, step: int) -> None:
        for c_part, _, _ in changed:
            for j in compress(columns, c_part):  # the non-zero entries
                if c_part[j] > 0:
                    positive_count[j] += step
                else:
                    negative_count[j] += step
                products[j] = positive_count[j] * negative_count[j]

    count(rows, 1)
    remaining = list(columns)
    while remaining:
        # min keeps the first of equal keys: the lowest index
        column = min(remaining, key=products.__getitem__)
        remaining.remove(column)
        positive, negative, base = _split(rows, column)
        kept_base, kept_fresh = _prune_combined(base, _combine(positive, negative, column))
        rows = kept_base + kept_fresh
        _check_rows(rows, max_rows)
        count(positive, -1)
        count(negative, -1)
        if len(kept_base) < len(base):
            kept = {id(row) for row in kept_base}
            count([row for row in base if id(row) not in kept], -1)
        count(kept_fresh, 1)
    invariants = _semiflows(rows, places)
    invariants.sort(key=sorted)
    return invariants


def _reference_place_invariants(
    net: PetriNet,
    max_rows: Optional[int],
) -> list[dict[str, int]]:
    """Farkas elimination in declaration order of the transitions.

    The uncached loop :func:`_compute_place_invariants` replaced; kept as
    its oracle.  Its cost depends on the transition order: eliminating a
    column with many positive and negative rows early multiplies the rows.
    """
    places, transitions, matrix = incidence_matrix(net)
    rows = _initial_rows(matrix)
    for column in range(len(transitions)):
        positive, negative, base = _split(rows, column)
        kept_base, kept_fresh = _prune_combined(base, _combine(positive, negative, column))
        rows = kept_base + kept_fresh
        _check_rows(rows, max_rows)
    return _semiflows(rows, places)


_Row = tuple[tuple[int, ...], tuple[int, ...], int]


def _initial_rows(matrix: list[list[int]]) -> list[_Row]:
    """Rows ``[C_row | identity_row | support mask of the identity part]``.

    Rows are only ever combined with positive factors and the invariant
    parts are non-negative, so supports never cancel: the support mask of a
    combination is the union of the parents' masks and can be carried
    incrementally instead of being recomputed from the vectors.
    """
    num_places = len(matrix)
    return [
        (tuple(matrix[i]), tuple(1 if j == i else 0 for j in range(num_places)), 1 << i)
        for i in range(num_places)
    ]


def _split(rows: list[_Row], column: int) -> tuple[list[_Row], list[_Row], list[_Row]]:
    """(positive, negative, zero) rows at ``column``."""
    positive = [row for row in rows if row[0][column] > 0]
    negative = [row for row in rows if row[0][column] < 0]
    base = [row for row in rows if row[0][column] == 0]
    return positive, negative, base


def _combine(positive: list[_Row], negative: list[_Row], column: int) -> list[_Row]:
    """Every positive row combined with every negative row to cancel ``column``."""
    fresh: list[_Row] = []
    for c_pos, inv_pos, mask_pos in positive:
        num_transitions = len(c_pos)
        for c_neg, inv_neg, mask_neg in negative:
            factor_pos = -c_neg[column]
            factor_neg = c_pos[column]
            new_c = tuple(factor_pos * a + factor_neg * b for a, b in zip(c_pos, c_neg))
            new_inv = tuple(
                factor_pos * a + factor_neg * b for a, b in zip(inv_pos, inv_neg)
            )
            merged = _normalize(new_c + new_inv)
            fresh.append(
                (merged[:num_transitions], merged[num_transitions:], mask_pos | mask_neg)
            )
    return fresh


def _check_rows(rows: list[_Row], max_rows: Optional[int]) -> None:
    if max_rows is not None and len(rows) > max_rows:
        raise RuntimeError(f"Farkas elimination exceeded {max_rows} intermediate rows")


def _semiflows(rows: list[_Row], places: list[str]) -> list[dict[str, int]]:
    """The distinct non-zero semiflows among the fully eliminated rows."""
    invariants: list[dict[str, int]] = []
    seen: set[tuple[int, ...]] = set()
    for c_part, inv_part, _ in rows:
        if any(value != 0 for value in c_part):
            continue
        if all(value == 0 for value in inv_part):
            continue
        normalized = _normalize(inv_part)
        if normalized in seen:
            continue
        seen.add(normalized)
        invariants.append(
            {places[i]: value for i, value in enumerate(normalized) if value}
        )
    return invariants


def _prune_combined(base: list[_Row], fresh: list[_Row]) -> tuple[list[_Row], list[_Row]]:
    """Remove rows whose invariant support strictly contains another row's.

    Returns the kept ``base`` rows and the kept ``fresh`` rows.  ``base``
    rows are the output of the previous elimination step, so they are
    already mutually support-minimal and support-distinct: a base row can
    only be dominated by a *fresh* row, and a fresh row by any row.  This
    cuts the pruning cost from quadratic in ``|base| + |fresh|`` to
    ``O(|base|·|fresh| + |fresh|²)`` bitmask comparisons.
    """
    if not fresh:
        return base, []
    fresh_masks = [mask for _, _, mask in fresh]
    kept_base: list[_Row] = []
    base_masks: list[int] = []
    for row in base:
        support = row[2]
        dominated = False
        for other in fresh_masks:
            # other is a (strict) subset of support
            if not other & ~support and other != support:
                dominated = True
                break
        if not dominated:
            kept_base.append(row)
            base_masks.append(support)
    kept_fresh: list[_Row] = []
    for index, row in enumerate(fresh):
        support = fresh_masks[index]
        dominated = False
        for other in base_masks:
            if not other & ~support:  # subset or equal: base wins dedupe
                dominated = True
                break
        if not dominated:
            for j, other in enumerate(fresh_masks):
                if j == index:
                    continue
                if not other & ~support and (other != support or j < index):
                    dominated = True
                    break
        if not dominated:
            kept_fresh.append(row)
    return kept_base, kept_fresh


def minimal_place_invariants(net: PetriNet) -> list[frozenset[str]]:
    """Supports of the minimal P-semiflows."""
    return [frozenset(inv) for inv in place_invariants(net)]


def is_covered_by_invariants(net: PetriNet, invariants: list[dict[str, int]]) -> bool:
    """True if every place appears in the support of some invariant."""
    covered: set[str] = set()
    for invariant in invariants:
        covered.update(invariant)
    return covered >= set(net.places)


def token_count_of_invariant(net: PetriNet, invariant: dict[str, int]) -> int:
    """Weighted token count of the initial marking over an invariant.

    This count is preserved by every firing; for a one-token SM-component it
    equals 1.
    """
    marking = net.initial_marking
    return sum(weight * marking[place] for place, weight in invariant.items())
