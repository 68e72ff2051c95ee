"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers or on
``fractions.Fraction``; there is deliberately no floating-point path.
Determinants, linear solves and inverses share one fraction-free (Bareiss)
forward elimination; ``solve(m, b)`` eliminates ``[m | b]`` once and
back-substitutes exactly. Solutions and inverses come out in adjugate form
(every denominator divides ``|det|``), and the Smith normal form uses a
fixed pivot rule (smallest absolute value, ties broken in row-major order)
so that outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rational = Fraction


class NonSquareError(ValueError):
    """Operation requires a square matrix."""


class SingularError(ValueError):
    """Matrix has determinant zero."""


class NotBlockCirculantError(ValueError):
    """Matrix is not block circulant; carries the first offending block pair."""

    def __init__(self, block_row: int, block_col: int):
        self.block_row = block_row
        self.block_col = block_col
        super().__init__(
            f"block ({block_row}, {block_col}) differs from block "
            f"(0, {block_col - block_row}) modulo the block count"
        )


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("IntMatrix entries must be ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(int(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(self.row(i)[k] * x[k] for k in range(self.cols)) for i in range(self.rows)]


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix over the exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return RationalMatrix(r, c, tuple(Fraction(x) for row in rows for x in row))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul_vec(self, x: Sequence[Fraction | int]) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        return [
            sum((self.row(i)[k] * x[k] for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]


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


def _solve_columns(m: IntMatrix, extra: list[list[int]], count: int) -> list[list[Fraction]]:
    """Solutions z of ``m z = e`` for each of the ``count`` columns e of ``extra``.

    One elimination of ``[m | extra]``, then exact back-substitution.
    """
    if not m.is_square:
        raise NonSquareError(f"cannot solve with a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [list(m.row(i)) + extra[i] for i in range(n)]
    if _eliminate(a, n) == 0:
        raise SingularError("matrix is singular")
    cols = []
    for c in range(n, n + count):
        z = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            z[i] = (a[i][c] - sum(a[i][j] * z[j] for j in range(i + 1, n))) / Fraction(a[i][i])
        cols.append(z)
    return cols


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    The 0x0 determinant is 1 (empty product), which makes the
    empty-surgery case of the surgery formula collapse to the base
    linking number.
    """
    if not m.is_square:
        raise NonSquareError(f"det of {m.rows}x{m.cols} matrix")
    return _eliminate(m.to_rows(), m.rows)


def solve(m: IntMatrix, b: Sequence[int]) -> list[Fraction]:
    """Exact solution z of ``m z = b``: one elimination of ``[m | b]``.

    Every denominator divides ``|det(m)|``. Raises :class:`SingularError`
    when m is singular.
    """
    if len(b) != m.rows:
        raise ValueError("vector dimension mismatch")
    return _solve_columns(m, [[v] for v in b], 1)[0]


def inverse(m: IntMatrix) -> RationalMatrix:
    """Exact inverse; every entry has denominator dividing ``|det(m)|``."""
    n = m.rows
    cols = _solve_columns(m, IntMatrix.identity(n).to_rows(), n)
    return RationalMatrix(n, n, tuple(cols[j][i] for i in range(n) for j in range(n)))


def _swap_rows(a: list[list[int]], u: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a: list[list[int]], v: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a: list[list[int]], u: list[list[int]], dst: int, src: int, q: int) -> None:
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def _add_col(a: list[list[int]], v: list[list[int]], dst: int, src: int, q: int) -> None:
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``(D, U, V)`` with ``D = U * m * V``.

    D is diagonal with non-negative invariant factors d1 | d2 | ...;
    U and V are unimodular. Pivot rule: smallest nonzero absolute value
    in the working submatrix, ties broken in row-major order.
    """
    r, c = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()

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
        if i != t:
            _swap_rows(a, u, t, i)
        if j != t:
            _swap_cols(a, v, t, j)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                _add_row(a, u, i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                _add_col(a, v, j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Row and column are clear; enforce divisibility of the remainder.
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, u, t, offender, 1)
            continue
        t += 1
    d = IntMatrix.from_rows(a) if r and c else IntMatrix.zeros(r, c)
    return d, IntMatrix.from_rows(u) if r else IntMatrix.zeros(0, 0), (
        IntMatrix.from_rows(v) if c else IntMatrix.zeros(0, 0)
    )


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
    if n == 0:
        return 1
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


def _split_blocks(rows: list[list], q: int) -> list[list[list[list]]]:
    n = len(rows)
    s = n // q
    return [
        [[[rows[bi * s + i][bj * s + j] for j in range(s)] for i in range(s)] for bj in range(q)]
        for bi in range(q)
    ]


def block_circulant_split(m: IntMatrix | RationalMatrix, q: int):
    """Split a block-circulant matrix into its q defining blocks.

    Block (i, j) of a block-circulant matrix depends only on (j - i) mod q;
    the returned list holds blocks (0, 0), (0, 1), ..., (0, q-1) as matrices
    of the same kind as the input. Raises :class:`NotBlockCirculantError`
    with the first offending block pair (row-major scan) otherwise.
    """
    if not m.is_square:
        raise NonSquareError("block_circulant_split needs a square matrix")
    if q <= 0 or m.rows % q != 0:
        raise ValueError(f"block count {q} does not divide size {m.rows}")
    rows = m.to_rows()
    blocks = _split_blocks(rows, q)
    for bi in range(q):
        for bj in range(q):
            if blocks[bi][bj] != blocks[0][(bj - bi) % q]:
                raise NotBlockCirculantError(bi, bj)
    s = m.rows // q
    if s == 0:
        return [type(m)(0, 0, ()) for _ in range(q)]
    factory = IntMatrix.from_rows if isinstance(m, IntMatrix) else RationalMatrix.from_rows
    return [factory(blocks[0][d]) for d in range(q)]
