"""Occupancy state spaces and the exact maps between them.

Three finite spaces appear throughout the package, always parameterized by a
cell count ``n`` and a particle count ``r``:

* compositions: length-``n`` tuples of nonnegative ints summing to ``r``
  (the occupancy vectors);
* ordered labels: nondecreasing length-``r`` tuples over ``{1..n}`` (the
  sorted cell labels of the particles);
* label vectors: arbitrary length-``r`` tuples over ``{1..n}``.

Compositions and ordered labels are in bijection (``phi``/``psi``); label
vectors map onto compositions by counting occurrences (``tilde_phi``).
Elements are plain int tuples so they can serve directly as table keys.

Every public function that takes (n, r) checks them with ``check_space``
before any other work.
"""

import itertools
import math

from .errors import BudgetExceededError, EmptySupportError

Composition = tuple[int, ...]
OrderedLabels = tuple[int, ...]
LabelVector = tuple[int, ...]

#: largest space the enumerators agree to materialize, in cells (entries)
#: for compositions and in elements for label vectors
ENUMERATION_BUDGET = 10**7


def check_int(value, name: str, low: int) -> None:
    """Raise ValueError unless ``value`` is an int (a bool is not) and at
    least ``low``; the type is judged before the range."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_space(n, r) -> None:
    """The check of a cell count ``n`` >= 1 and a particle count ``r`` >= 0,
    in that order.  Valid counts pass with one test and no further call:
    the table builders and the suites make thousands of these checks."""
    if type(n) is not int or type(r) is not int or n < 1 or r < 0:
        check_int(n, "cell count", 1)
        check_int(r, "particle count", 0)


def composition_count(n: int, r: int) -> int:
    """Number of length-``n`` compositions of ``r``: binom(n+r-1, n-1)."""
    check_space(n, r)
    return math.comb(n + r - 1, n - 1)


def orbit_count(n: int, r: int) -> int:
    """Number of partitions of ``r`` into at most ``n`` parts: the orbits of
    the length-``n`` compositions of ``r`` under permuting the cells.

    Counted as the partitions of ``r`` into parts of size at most ``n``
    (the conjugate partitions), adding one part size at a time.
    """
    check_space(n, r)
    counts = [1] + [0] * r
    for part in range(1, min(n, r) + 1):
        for total in range(part, r + 1):
            counts[total] += counts[total - part]
    return counts[r]


def check_budget(space: str, count: int, cells: int) -> None:
    """Raise BudgetExceededError when ``count`` elements of ``cells`` cells
    each hold more than ENUMERATION_BUDGET cells in all.

    The budget counts cells, the work of listing the elements, so a single
    element with a huge number of cells is refused too.
    """
    if count * cells <= ENUMERATION_BUDGET:
        return
    if count > ENUMERATION_BUDGET:  # past the budget on the element count alone
        size = f"{count} elements"
    else:
        size = f"{count} elements of {cells} cells each"
    raise BudgetExceededError(f"{space} has {size} (budget {ENUMERATION_BUDGET})")


def check_composition_budget(n: int, r: int) -> None:
    """Raise BudgetExceededError when the length-``n`` compositions of ``r``
    hold more than ENUMERATION_BUDGET cells in all (see ``check_budget``)."""
    check_budget(f"composition space for n={n}, r={r}", composition_count(n, r), n)


def _compositions(n: int, r: int):
    # Lexicographic successor: move one particle from the last occupied
    # cell ``j`` into cell ``j - 1`` and put the rest of cell ``j`` into the
    # last cell.  ``j`` is tracked instead of searched for, so each step is
    # O(1) apart from copying the tuple, and no recursion bounds ``n``.
    x = [0] * n
    x[-1] = r
    j = n - 1 if r else 0
    yield tuple(x)
    while j > 0:
        rest = x[j] - 1
        x[j] = 0
        x[j - 1] += 1
        if rest:
            x[-1] = rest
            j = n - 1
        else:
            j -= 1
        yield tuple(x)


def enumerate_compositions(n: int, r: int) -> list[Composition]:
    """All length-``n`` compositions of ``r`` in lexicographic order."""
    check_composition_budget(n, r)
    return list(_compositions(n, r))


def enumerate_binary_compositions(n: int, r: int) -> list[Composition]:
    """All 0/1 compositions of ``r`` over ``n`` cells, lexicographic order."""
    check_space(n, r)
    if r > n:
        raise EmptySupportError(
            f"no 0/1 composition places {r} particles in {n} cells"
        )
    out = []
    for ones in itertools.combinations(range(n), r):
        x = [0] * n
        for j in ones:
            x[j] = 1
        out.append(tuple(x))
    return sorted(out)


def tilde_phi(y: LabelVector, n: int) -> Composition:
    """Occupancy counts of an arbitrary label vector over ``n`` cells."""
    check_space(n, len(y))
    counts = [0] * n
    try:
        for label in y:
            if not 1 <= label <= n:
                raise ValueError(f"label {label} outside 1..{n}")
            counts[label - 1] += 1
    except TypeError:  # a label that is not an int
        raise ValueError(f"label vector {tuple(y)} has labels that are not integers") from None
    return tuple(counts)


def phi(u: OrderedLabels, n: int) -> Composition:
    """Occupancy counts of a nondecreasing label vector over ``n`` cells."""
    if any(a > b for a, b in zip(u, u[1:])):
        raise ValueError(f"labels {u} are not nondecreasing")
    return tilde_phi(u, n)


def psi(x: Composition) -> OrderedLabels:
    """Nondecreasing label vector of a composition: cell j repeated x_j times."""
    labels = []
    try:
        for j, count in enumerate(x, start=1):
            if count < 0:
                raise ValueError(f"negative count {count} in composition {x}")
            labels.extend([j] * count)
    except TypeError:  # a count that is not an int
        raise ValueError(f"composition {tuple(x)} has counts that are not integers") from None
    return tuple(labels)


def multinomial(r: int, x: Composition) -> int:
    """r! / prod(x_j!) for a composition ``x`` of ``r``."""
    try:
        if any(c < 0 for c in x):
            raise ValueError(f"negative count in composition {x}")
        if sum(x) != r:
            raise ValueError(f"composition {x} sums to {sum(x)}, expected {r}")
        out = math.factorial(r)
        for c in x:
            out //= math.factorial(c)
    except TypeError:  # a count that is not an int
        raise ValueError(f"multinomial({r!r}, {tuple(x)}) needs integer counts") from None
    return out


def enumerate_labels(r: int, n: int) -> list[LabelVector]:
    """All ``n**r`` label vectors in odometer order (last coordinate fastest)."""
    check_space(n, r)
    check_budget(f"label space for r={r}, n={n}", n**r, 1)
    return list(itertools.product(range(1, n + 1), repeat=r))


def check_index_set(index_set, r: int) -> list[int]:
    """The sorted distinct coordinates of a nonempty ``index_set``, each an
    int in 1..``r``."""
    idx = sorted(set(index_set))
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(type(i) is not int for i in idx):
        raise ValueError(f"index set {idx} has entries that are not integers")
    if any(not 1 <= i <= r for i in idx):
        raise ValueError(f"index set {idx} outside 1..{r}")
    return idx


def distinct_permutation_count(seq) -> int:
    """Number of distinct reorderings of a sequence: the multinomial of its value counts."""
    return multinomial(len(seq), [seq.count(v) for v in set(seq)])


def distinct_permutations(seq) -> list[tuple]:
    """All distinct reorderings of a finite sequence, in sorted order.

    Lexicographic next-permutation steps from the sorted sequence (Knuth's
    Algorithm L), so the work is proportional to the number of distinct
    reorderings, not to ``len(seq)!``.
    """
    a = sorted(seq)
    out = [tuple(a)]
    while True:
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]
        out.append(tuple(a))
