"""Independent brute-force oracles used only by the tests.

These deliberately share no code with the package: partition counts come
from the pentagonal-number recurrence, partitions themselves from splitting
parts until nothing new appears, LR tableau counts from
generate-all-then-filter enumeration over every possible filling,
semistandard tableau counts from fillings built cell by cell that are
dropped as soon as a row or column breaks, and character values from a
border-strip recursion on beta-number lists and shape tuples rather than on
the package's bitmasks.
"""

from functools import lru_cache
from itertools import product


def pentagonal_counts(limit):
    """p(0..limit) via Euler's pentagonal number recurrence."""
    counts = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    return counts


@lru_cache(maxsize=None)
def all_partitions(m):
    """Every partition of m, in reverse lex order.

    Starts from (m,) and splits one part into two until no new partition
    appears; every partition of m is reached, because merging its parts
    one pair at a time ends at (m,).
    """
    seen = {(m,) if m else ()}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for i, a in enumerate(p):
            for b in range(1, a // 2 + 1):
                q = tuple(sorted(p[:i] + (a - b, b) + p[i + 1 :], reverse=True))
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    return tuple(sorted(seen, reverse=True))


def brute_partitions(m, max_length=None, max_part=None):
    """The partitions of m with at most max_length parts, each at most max_part."""
    return [
        p
        for p in all_partitions(m)
        if (max_length is None or len(p) <= max_length)
        and (max_part is None or not p or p[0] <= max_part)
    ]


def _padded(p, rows):
    return tuple(p) + (0,) * (rows - len(p))


def brute_subshapes(lam, size):
    """The partitions of size whose diagrams lie inside lam's."""
    lam = tuple(lam)
    return [
        p
        for p in all_partitions(size)
        if len(p) <= len(lam) and all(a <= b for a, b in zip(p, lam))
    ]


def brute_hstrip_shapes(lam, size):
    """The partitions nu of size with nu / lam a horizontal strip.

    That is, lam lies inside nu and no column of nu / lam has two cells:
    row i + 1 of nu is no longer than row i of lam.
    """
    lam = tuple(lam)
    out = []
    for nu in all_partitions(size):
        rows = max(len(nu), len(lam)) + 1
        new, old = _padded(nu, rows), _padded(lam, rows)
        if all(old[i] <= new[i] for i in range(rows)) and all(
            new[i + 1] <= old[i] for i in range(rows - 1)
        ):
            out.append(nu)
    return out


def _skew_cells(outer, inner):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [(i, j) for i in range(len(outer)) for j in range(inner[i], outer[i])]


def _semistandard(grid):
    for (i, j), v in grid.items():
        right = grid.get((i, j + 1))
        if right is not None and right < v:
            return False
        below = grid.get((i + 1, j))
        if below is not None and below <= v:
            return False
    return True


def _reverse_reading_word(outer, inner, grid):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    word = []
    for i in range(len(outer)):
        for j in range(outer[i] - 1, inner[i] - 1, -1):
            word.append(grid[(i, j)])
    return word


def _is_lattice(word):
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def brute_lr_count(outer, inner, content):
    """LR tableaux of shape outer/inner and content, by filtering all fillings."""
    outer, inner, content = tuple(outer), tuple(inner), tuple(content)
    cells = _skew_cells(outer, inner)
    if sum(content) != len(cells):
        return 0
    nvals = len(content)
    count = 0
    for fill in product(range(1, nvals + 1), repeat=len(cells)):
        grid = dict(zip(cells, fill))
        hist = [0] * nvals
        for v in fill:
            hist[v - 1] += 1
        if tuple(hist) != content:
            continue
        if not _semistandard(grid):
            continue
        if not _is_lattice(_reverse_reading_word(outer, inner, grid)):
            continue
        count += 1
    return count


def brute_ssyt_count(shape, content):
    """Semistandard tableaux of straight shape and (composition) content.

    The cells are filled in row-major order with every value the content
    still has room for; a partial filling is dropped as soon as its newest
    cell is smaller than its left neighbour or no larger than the one above.
    """
    shape, content = tuple(shape), tuple(content)
    cells = _skew_cells(shape, ())
    if sum(content) != len(cells):
        return 0
    room = list(content)
    grid = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, len(room) + 1):
            if room[v - 1] and grid.get((i, j - 1), 0) <= v and grid.get((i - 1, j), 0) < v:
                room[v - 1] -= 1
                grid[(i, j)] = v
                total += fill(idx + 1)
                room[v - 1] += 1
        grid.pop((i, j), None)
        return total

    return fill(0)


def cycle_assignment_count(pi, rho):
    """phi^pi(rho), the permutation character of the Young subgroup S_pi.

    A permutation fixes a coset of S_pi (a tabloid of content pi) exactly
    when each of its cycles lies inside one block, so this counts the ways
    to put every cycle of rho into a block of pi with each block's cycle
    lengths summing to its size.  pi may be any composition of |rho|.
    """

    def place(i, room):
        if i == len(rho):
            return 1 if not any(room) else 0
        total = 0
        for b, free in enumerate(room):
            if rho[i] <= free:
                total += place(i + 1, room[:b] + (free - rho[i],) + room[b + 1 :])
        return total

    return place(0, tuple(pi))


def _border_strips(lam, k):
    """Removable length-k border strips of lam, as (smaller shape, height).

    Runs on the first-column hook lengths (beta numbers), which encode the
    rim: removing a strip of length k moves one bead down by k, and the
    strip height is the number of beads jumped over.  Beads are scanned by
    row, so the enumeration order is deterministic.
    """
    rows = len(lam)
    beta = [lam[i] + rows - 1 - i for i in range(rows)]
    occupied = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = [c for c in beta if c != b] + [nb]
        new_beta.sort(reverse=True)
        parts = tuple(new_beta[j] - (rows - 1 - j) for j in range(rows))
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        out.append((parts[:end], height))
    return out


@lru_cache(maxsize=None)
def _mn(lam, rho):
    # Cycle parts are consumed largest-first (rho is sorted decreasing),
    # which keeps the (shape, remaining type) key space small.
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    total = 0
    for smaller, height in _border_strips(lam, k):
        term = _mn(smaller, rest)
        total += -term if height % 2 else term
    return total


def border_strip_value(lam, rho):
    """chi^lam(rho) for partitions lam and rho of one n, given as decreasing tuples."""
    return _mn(tuple(lam), tuple(rho))
