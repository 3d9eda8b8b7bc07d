"""Independent exact eliminators, the references for exactcore._rref.

fraction_rref is the plain reduced row echelon form over Fraction, and
fraction_rank_kernel and fraction_solve are the kernel and the solver
read off it.  bareiss_rank_profile is Bareiss' fraction-free one-step
elimination.  None of them shares code with the integer elimination of
src/, so each exact caller there can be checked against one of them.
"""

from fractions import Fraction


def fraction_rref(rows):
    """In-place reduced row echelon form; returns (rank, pivot columns)."""
    if not rows:
        return 0, []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        pr = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = 1 / Fraction(rows[rank][col])
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots


def fraction_rank_kernel(rows, ncols):
    """Rank and the kernel basis with a unit entry at each free column."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank, pivots = fraction_rref(work)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -work[r][f]
        basis.append(tuple(v))
    return rank, basis


def fraction_solve(a_rows, b):
    """Solve the square system A x = b; ValueError when A is singular."""
    n = len(a_rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])]
           for i, row in enumerate(a_rows)]
    rank, pivots = fraction_rref(aug)
    if rank < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    return [row[n] for row in aug]


def bareiss_rank_profile(rows, ncols):
    """Rank and pivot columns of an integer matrix, fraction-free.

    Bareiss one-step elimination on a copy of `rows`: every intermediate
    entry is a minor of the input, and the division by the previous pivot
    is exact.
    """
    rows = [list(row) for row in rows]
    rank = 0
    prev = 1
    pivots = []
    nrows = len(rows)
    for col in range(ncols):
        pr = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pr = r
                break
        if pr is None:
            continue
        if pr != rank:
            rows[rank], rows[pr] = rows[pr], rows[rank]
        piv_row = rows[rank]
        piv = piv_row[col]
        for r in range(rank + 1, nrows):
            row = rows[r]
            a = row[col]
            if a:
                for j in range(col + 1, ncols):
                    row[j] = (piv * row[j] - a * piv_row[j]) // prev
            elif prev != piv:
                for j in range(col + 1, ncols):
                    if row[j]:
                        row[j] = (piv * row[j]) // prev
            row[col] = 0
        prev = piv
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots
