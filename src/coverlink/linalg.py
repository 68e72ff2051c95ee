"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers or on
``fractions.Fraction``; there is deliberately no floating-point path. An
:class:`IntMatrix` stores only its nonzero entries, keyed by position, so a
lifted surgery matrix (diagonal on every presentation) costs O(N) to build
and to solve, not O(N^2); the dense form is derived on request.
A diagonal matrix, which is what every presentation lifts to, is handled
in place: ``det`` is the product of its diagonal, and a solve divides b by
it entrywise. Any other matrix takes one fraction-free (Bareiss) forward
elimination of the whole matrix: of m for ``det``, of ``[m | b]`` for a
solve. The back-substitution is fraction-free too: for the last pivot D
``D * z`` is integral by Cramer's rule, so it runs on integers with exact
division. Every solve goes through ``solve_numerators``, which returns z
as integer numerators over the lcm of z's denominators. ``solve`` and
``inverse`` (column j solves for e_j) check ``det`` once and build their
``Fraction``s from those numerators, so every denominator divides
``|det|``. The Smith normal form uses a fixed pivot rule (smallest
absolute value, ties broken in row-major order) so that outputs are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class NonSquareError(ValueError):
    """Operation requires a square matrix."""


class SingularError(ValueError):
    """Matrix has determinant zero."""


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix: ``nonzeros`` maps ``(row, col)`` to each nonzero entry.

    Zeros are never stored, so two matrices are equal exactly when their
    entries are. The map is excluded from the hash and must not be mutated
    after construction. ``to_rows`` gives the dense rows.
    """

    rows: int
    cols: int
    nonzeros: dict[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        for (i, j), v in self.nonzeros.items():
            if type(v) is not int:
                raise TypeError("IntMatrix entries must be ints")
            if not v:
                raise ValueError(f"IntMatrix stores no zeros, got one at ({i}, {j})")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) is outside a {rows}x{cols} matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        nonzeros = {(i, j): int(x) for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        for (i, j), v in nonzeros.items():
            if v != rows[i][j]:
                raise TypeError(f"entry ({i}, {j}) = {rows[i][j]!r} is not an integer")
        return IntMatrix(r, c, nonzeros)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, {})

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.nonzeros.get(ij, 0)

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.nonzeros.items():
            out[i][j] = v
        return out

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        other_rows: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.nonzeros.items():
            other_rows.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], int] = {}
        for (i, k), u in self.nonzeros.items():
            for j, v in other_rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + u * v
        return IntMatrix(self.rows, other.cols, {ij: v for ij, v in out.items() if v})

    def mul_vec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        out = [0] * self.rows
        for (i, k), v in self.nonzeros.items():
            out[i] += v * x[k]
        return out


def _eliminate(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) forward elimination of the rows ``a``, in place.

    Columns past the first n (an augmented block) are carried along; every
    division stays exact because every entry is a minor of ``a``. Returns
    the determinant of the leading n x n block.
    """
    if n == 0:
        return 1
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _is_diagonal(m: IntMatrix) -> bool:
    """Whether every stored entry of m lies on the diagonal."""
    return all(i == j for i, j in m.nonzeros)


def _solve_dense(m: IntMatrix, b: Sequence[int]) -> tuple[int, list[int]]:
    """``(D, y)`` for ``m z = b``: D is the last pivot and ``y[i] = D * z[i]``.

    One elimination of ``[m | b]``, then fraction-free back-substitution
    (every ``//`` is exact). Raises :class:`SingularError` when m is singular.
    """
    n = m.rows
    a = [row + [e] for row, e in zip(m.to_rows(), b)]
    if _eliminate(a, n) == 0:
        raise SingularError("matrix is singular")
    last = a[n - 1][n - 1]
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        y[r] = (last * row[n] - sum(row[s] * y[s] for s in range(r + 1, n))) // row[r]
    return last, y


def det(m: IntMatrix) -> int:
    """Exact determinant: the product of a diagonal m's entries, else one Bareiss elimination.

    The 0x0 determinant is 1 (empty product), which makes the empty-surgery
    case of the surgery formula collapse to the base linking number.
    """
    if not m.is_square:
        raise NonSquareError(f"det of {m.rows}x{m.cols} matrix")
    if _is_diagonal(m):
        get = m.nonzeros.get
        return math.prod(get((i, i), 0) for i in range(m.rows))
    return _eliminate(m.to_rows(), m.rows)


def solve_numerators(m: IntMatrix, b: Sequence[int]) -> tuple[dict[int, int], int]:
    """The solution of ``m z = b`` on integers: ``(w, d)`` with ``z[i] = w.get(i, 0) / d``.

    w holds the nonzero numerators and d > 0 is the lcm of z's denominators.
    A diagonal m is solved in place, as ``z[i] = b[i] / m[i, i]`` wherever
    b is nonzero; any other m takes one elimination of ``[m | b]``. The
    caller has already checked that ``det(m) != 0``; a zero diagonal entry
    of a diagonal m where b is 0 goes undetected here.
    """
    if not m.is_square:
        raise NonSquareError(f"cannot solve with a {m.rows}x{m.cols} matrix")
    if len(b) != m.rows:
        raise ValueError("vector dimension mismatch")
    if _is_diagonal(m):
        get = m.nonzeros.get
        solved, d = [], 1  # (index, b[index], its diagonal entry)
        for i, v in enumerate(b):
            if v:
                pivot = get((i, i))
                if not pivot:
                    raise SingularError("matrix is singular")
                solved.append((i, v, pivot))
                d = math.lcm(d, pivot // math.gcd(pivot, v))
    else:
        last, y = _solve_dense(m, b)
        solved = [(i, v, last) for i, v in enumerate(y)]
        d = abs(last) // math.gcd(last, *y)
    return {i: v * d // pivot for i, v, pivot in solved if v}, d


def solve(m: IntMatrix, b: Sequence[int]) -> list[Fraction]:
    """Exact solution z of ``m z = b``: :func:`solve_numerators` after a ``det`` check.

    Every denominator divides ``|det(m)|``. Raises :class:`SingularError`
    when m is singular.
    """
    if det(m) == 0:
        raise SingularError("matrix is singular")
    w, d = solve_numerators(m, b)
    return [Fraction(w.get(i, 0), d) for i in range(m.rows)]


def inverse(m: IntMatrix) -> list[list[Fraction]]:
    """Exact inverse as a list of rows; every denominator divides ``|det(m)|``.

    After one ``det`` check (which also rejects a non-square m), column j is
    :func:`solve_numerators` of e_j. Raises :class:`SingularError` when m is
    singular.
    """
    if det(m) == 0:
        raise SingularError("matrix is singular")
    n = m.rows
    columns = [solve_numerators(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[Fraction(w.get(i, 0), d) for w, d in columns] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``(D, U, V)`` with ``D = U * m * V``.

    D is diagonal with non-negative invariant factors d1 | d2 | ...;
    U and V are unimodular. Pivot rule: smallest nonzero absolute value
    in the working submatrix, ties broken in row-major order. The work runs
    on ``[[m, I], [I, 0]]``: an operation on its first r rows carries U
    along, and one on its first c columns carries V.
    """
    r, c = m.rows, m.cols
    a = [row + [int(i == j) for j in range(r)] for i, row in enumerate(m.to_rows())]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]

    def pick_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(r, c):
        loc = pick_pivot(t)
        if loc is None:
            break
        i, j = loc
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Row and column are clear; enforce divisibility of the remainder.
        offender = next(
            (i for i in range(t + 1, r) if any(a[i][j] % a[t][t] for j in range(t + 1, c))), None
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    # from_rows reads no column count off zero rows, so an empty D is built directly.
    d = IntMatrix.from_rows([row[:c] for row in a[:r]]) if r else IntMatrix.zeros(0, c)
    u = IntMatrix.from_rows([row[c:] for row in a[:r]])
    return d, u, IntMatrix.from_rows([row[:c] for row in a[r:]])


def order_in_quotient(m: IntMatrix, x: Sequence[int]) -> int | None:
    """Order of ``[x]`` in the quotient of the integer lattice by m's column span.

    Returns the smallest d >= 1 with d*x in the integer column span of m,
    or None when the class has infinite order (possible only if det(m) = 0).
    """
    if not m.is_square:
        raise NonSquareError("order_in_quotient needs a square matrix")
    if len(x) != m.rows:
        raise ValueError("vector dimension mismatch")
    n = m.rows
    d_mat, u, _v = smith_normal_form(m)
    y = u.mul_vec(list(x))
    order = 1
    for i in range(n):
        di = d_mat[i, i]
        yi = y[i]
        if di == 0:
            if yi != 0:
                return None
            continue
        order = math.lcm(order, di // math.gcd(di, yi))
    return order

