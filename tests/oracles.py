"""Independent oracles used by the tests.

Everything here is written directly from definitions, on purpose not
sharing code with the package: naive associativity filtering, a
column-major backtracking fill of associative tables, literal machine runs
for word semantics, mutual-membership Green relations, closure-computed
ideals, textbook Moore refinement of machine states, a backtracking
isomorphism search between tables and the shape (group, left or right
zero, null, rectangular band) of a closed subset.  Frozen constants in the
tests were produced by these oracles and are asserted against both routes.
"""

from __future__ import annotations

import itertools


def is_associative(rows):
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def all_tables(n):
    """Every associative table of order n, by filtering all n**(n*n) grids."""
    found = []
    for flat in itertools.product(range(n), repeat=n * n):
        rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if is_associative(rows):
            found.append(rows)
    return found


def column_major_tables(n):
    """Every associative table of order n, by backtracking over the cells
    column by column, each tried with 0..n-1: after each cell the grid is
    dropped if any triple whose four lookups are filled has (ab)c != a(bc)."""
    cells = [(i, j) for j in range(n) for i in range(n)]
    grid = [[None] * n for _ in range(n)]
    found = []

    def clash():
        for a, b, c in itertools.product(range(n), repeat=3):
            ab, bc = grid[a][b], grid[b][c]
            if ab is None or bc is None:
                continue
            left, right = grid[ab][c], grid[a][bc]
            if left is not None and right is not None and left != right:
                return True
        return False

    def fill(k):
        if k == len(cells):
            found.append(tuple(map(tuple, grid)))
            return
        i, j = cells[k]
        for v in range(n):
            grid[i][j] = v
            if not clash():
                fill(k + 1)
        grid[i][j] = None

    fill(0)
    return found


def run_machine(rows, state, string):
    """One pass of the Cayley machine from the given state."""
    out = []
    for x in string:
        y = rows[state][x]
        out.append(y)
        state = y
    return tuple(out)


def word_apply(rows, word, string):
    """The word's transformation, computed literally: run the machine of
    the first letter, feed its output to the machine of the second, ..."""
    string = tuple(string)
    for a in word:
        string = run_machine(rows, a, string)
    return string


def mutual_membership_green(rows):
    """R, L, H, D classes from scratch.

    a R b iff each lies in the other's principal right ideal (membership,
    not set equality); D is the transitive closure of R union L, computed
    by union-find rather than by comparing two-sided ideals.
    """
    n = len(rows)
    right = [{a} | {rows[a][x] for x in range(n)} for a in range(n)]
    left = [{a} | {rows[x][a] for x in range(n)} for a in range(n)]

    def related(sets, a, b):
        return b in sets[a] and a in sets[b]

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    r_pairs = set()
    l_pairs = set()
    for a in range(n):
        for b in range(n):
            if related(right, a, b):
                r_pairs.add((a, b))
                union(a, b)
            if related(left, a, b):
                l_pairs.add((a, b))
                union(a, b)
    h_pairs = r_pairs & l_pairs
    d_pairs = {(a, b) for a in range(n) for b in range(n) if find(a) == find(b)}
    return r_pairs, l_pairs, h_pairs, d_pairs


def closure_ideal(rows, a):
    """The two-sided ideal generated by a, grown by closure."""
    n = len(rows)
    seen = {a}
    todo = [a]
    while todo:
        x = todo.pop()
        for y in range(n):
            for z in (rows[x][y], rows[y][x]):
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
    return frozenset(seen)


def kernel(rows):
    """The minimal ideal as the intersection of all principal ideals."""
    ideals = [closure_ideal(rows, a) for a in range(len(rows))]
    return frozenset.intersection(*ideals)


def classes_to_pairs(ids):
    """Turn per-element class ids into the set of related pairs."""
    n = len(ids)
    return {(a, b) for a in range(n) for b in range(n) if ids[a] == ids[b]}


def _first_occurrence(keys):
    first = {}
    return [first.setdefault(key, len(first)) for key in keys]


def moore_classes(out_rows, nxt_rows):
    """Behavioral equivalence of machine states by textbook Moore
    refinement: start from the partition by output rows and split every
    block by the blocks of the successors until a pass changes nothing.
    Blocks are numbered by first occurrence in state order after every
    pass, so a pass changes nothing exactly when the numbering repeats."""
    block = _first_occurrence(out_rows)
    while True:
        split = _first_occurrence(
            (block[s], tuple(block[t] for t in nxt_rows[s]))
            for s in range(len(out_rows))
        )
        if split == block:
            return block
        block = split


def find_isomorphism(rows_a, rows_b):
    """A bijection p with p(x*y) = p(x)*p(y), or None.

    Backtracking over images, pruning with relabeling-invariant signatures
    (idempotency, occurrence counts, distinct values per row and column).
    """
    n = len(rows_a)
    if len(rows_b) != n:
        return None

    def signature(rows, x):
        occurrences = sum(row.count(x) for row in rows)
        row_values = len(set(rows[x]))
        col_values = len({rows[y][x] for y in range(n)})
        return (rows[x][x] == x, occurrences, row_values, col_values)

    sig_a = [signature(rows_a, x) for x in range(n)]
    sig_b = [signature(rows_b, x) for x in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None

    image = [-1] * n
    used = [False] * n

    def compatible(x):
        for y in range(n):
            if image[y] < 0:
                continue
            xy = rows_a[x][y]
            yx = rows_a[y][x]
            if image[xy] >= 0 and rows_b[image[x]][image[y]] != image[xy]:
                return False
            if image[yx] >= 0 and rows_b[image[y]][image[x]] != image[yx]:
                return False
        return True

    def assign(x):
        if x == n:
            # compatible() only sees pairs whose product is already placed,
            # so confirm the finished map on every pair.
            return all(
                rows_b[image[a]][image[b]] == image[rows_a[a][b]]
                for a in range(n)
                for b in range(n)
            )
        for candidate in range(n):
            if used[candidate] or sig_b[candidate] != sig_a[x]:
                continue
            image[x] = candidate
            used[candidate] = True
            if compatible(x) and assign(x + 1):
                return True
            image[x] = -1
            used[candidate] = False
        return False

    if assign(0):
        return tuple(image)
    return None


class NotClosedError(ValueError):
    """The subset is not closed under the product; ``pair`` is a witness."""

    def __init__(self, pair, product):
        self.pair = pair
        self.product = product
        a, b = pair
        super().__init__(
            "subset not closed: %d * %d = %d lies outside (1-based)"
            % (a + 1, b + 1, product + 1)
        )


def subset_shape(S, subset):
    """Classify a product-closed subset of the table S (anything with
    ``rows``).

    Returns one of 'group', 'left_zero', 'right_zero', 'null',
    'rectangular_band' or 'other', testing the most specific shape first.
    A singleton subsemigroup fits every shape at once and is reported as
    'right_zero' by convention.  Raises NotClosedError when some product
    leaves the subset, ValueError when the subset is empty or out of range.
    """
    rows = S.rows
    members = sorted(set(subset))
    if not members:
        raise ValueError("empty subset")
    for a in members:
        if not 0 <= a < len(rows):
            raise ValueError("element %d out of range" % a)
    inside = set(members)
    for a in members:
        for b in members:
            if rows[a][b] not in inside:
                raise NotClosedError((a, b), rows[a][b])

    if len(members) == 1:
        return "right_zero"
    if _is_group(rows, members):
        return "group"
    if all(rows[a][b] == a for a in members for b in members):
        return "left_zero"
    if all(rows[a][b] == b for a in members for b in members):
        return "right_zero"
    products = {rows[a][b] for a in members for b in members}
    if len(products) == 1:
        return "null"
    if all(
        rows[a][a] == a and rows[rows[a][b]][a] == a for a in members for b in members
    ):
        return "rectangular_band"
    return "other"


def _is_group(rows, members):
    """True iff (members, *) has an identity and every member an inverse."""
    for e in members:
        if all(rows[e][x] == x and rows[x][e] == x for x in members):
            return all(
                any(rows[x][y] == e and rows[y][x] == e for y in members)
                for x in members
            )
    return False
