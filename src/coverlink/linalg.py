"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers or on
``fractions.Fraction``; there is deliberately no floating-point path. An
:class:`IntMatrix` stores only its nonzero entries, keyed by position, so a
lifted surgery matrix (diagonal on every presentation) costs O(N) to build
and to solve, not O(N^2); the dense form is derived on request.
Determinants, linear solves and inverses share one fraction-free (Bareiss)
forward elimination, run once per connected block: the components of the
symmetrised nonzero pattern (i ~ j when entry (i, j) or (j, i) is nonzero)
index the diagonal blocks of a simultaneous row and column permutation of
the matrix, which leaves the determinant unchanged. A matrix finds its
blocks once, on first use; a dense matrix is one block, and a 1x1 block is
its diagonal entry. So ``det`` is the product of the blocks' determinants,
and a solve eliminates ``[block | b]`` per block. The back-substitution is
fraction-free too: for the block's last pivot D ``D * z`` is integral by
Cramer's rule, so it runs on integers with exact division.
``solve_numerators`` eliminates only the blocks where b is nonzero and
returns z as integer numerators over the lcm of z's denominators. Solutions
and inverses come out in adjugate form (every denominator divides
``|det|``), and the Smith normal form uses a fixed pivot rule (smallest
absolute value, ties broken in row-major order) so that outputs are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

Rational = Fraction


class NonSquareError(ValueError):
    """Operation requires a square matrix."""


class SingularError(ValueError):
    """Matrix has determinant zero."""


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix: ``nonzeros`` maps ``(row, col)`` to each nonzero entry.

    Zeros are never stored, so two matrices are equal exactly when their
    entries are. The map is excluded from the hash and must not be mutated
    after construction (the block split is cached on first use). ``entries``
    gives the dense row-major tuple.
    """

    rows: int
    cols: int
    nonzeros: dict[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        for (i, j), v in self.nonzeros.items():
            if not isinstance(v, int):
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

    @property
    def entries(self) -> tuple[int, ...]:
        """The dense row-major entries."""
        return tuple(v for row in self.to_rows() for v in row)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.nonzeros.get(ij, 0)

    def row(self, i: int) -> tuple[int, ...]:
        get = self.nonzeros.get
        return tuple(get((i, j), 0) for j in range(self.cols))

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.nonzeros.items():
            out[i][j] = v
        return out

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def _split(self) -> list[list[int]]:
        """``_blocks(self)``, found once and shared by ``det`` and the solves."""
        return _blocks(self)

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


def _blocks(m: IntMatrix) -> list[list[int]]:
    """Connected components of the symmetrised nonzero pattern of the square m.

    Indices i and j share a component when a chain of nonzero entries, read
    in either direction, joins them. A union-find over the stored entries
    finds them in O(N + nnz). Components come in order of their least
    index, each sorted, so a dense matrix is the single block 0..n-1.
    """
    n = m.rows
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in m.nonzeros:
        if i != j:
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(root(i), []).append(i)
    return list(blocks.values())


def _block_rows(m: IntMatrix, block: list[int]) -> list[list[int]]:
    get = m.nonzeros.get
    return [[get((i, j), 0) for j in block] for i in block]


def _solve_block(
    m: IntMatrix, block: list[int], extra: list[list[int]]
) -> tuple[int, list[list[int]]]:
    """``(D, ys)`` for one block of ``m z = e``, per column e of ``extra`` (a row per index).

    D is the block's last pivot and ``ys[c][r] = D * z[block[r]]`` for column
    c: one elimination of ``[block | extra]``, then fraction-free
    back-substitution (every ``//`` is exact). A 1x1 block is its diagonal
    entry. Raises :class:`SingularError` when the block is singular.
    """
    size = len(block)
    if size == 1:
        last = m.nonzeros.get((block[0], block[0]), 0)
        if not last:
            raise SingularError("matrix is singular")
        return last, [[e] for e in extra[0]]
    a = [row + e for row, e in zip(_block_rows(m, block), extra)]
    if _eliminate(a, size) == 0:
        raise SingularError("matrix is singular")
    last = a[size - 1][size - 1]
    ys = []
    for c in range(size, len(a[0])):
        y = [0] * size
        for r in range(size - 1, -1, -1):
            row = a[r]
            y[r] = (last * row[c] - sum(row[s] * y[s] for s in range(r + 1, size))) // row[r]
        ys.append(y)
    return last, ys


def det(m: IntMatrix) -> int:
    """Exact determinant: the product of the Bareiss determinants of m's blocks.

    A 1x1 block contributes its diagonal entry (0 when none is stored). The
    0x0 determinant is 1 (empty product), which makes the empty-surgery case
    of the surgery formula collapse to the base linking number.
    """
    if not m.is_square:
        raise NonSquareError(f"det of {m.rows}x{m.cols} matrix")
    get = m.nonzeros.get
    out = 1
    for block in m._split:
        if len(block) == 1:
            out *= get((block[0], block[0]), 0)
        else:
            out *= _eliminate(_block_rows(m, block), len(block))
        if out == 0:
            break
    return out


def solve_numerators(m: IntMatrix, b: Sequence[int]) -> tuple[dict[int, int], int]:
    """The solution of ``m z = b`` on integers: ``(w, d)`` with ``z[i] = w.get(i, 0) / d``.

    w holds the nonzero numerators and d > 0 is the lcm of z's denominators.
    Only the blocks where b is nonzero are eliminated. On every other block z
    is 0 because the caller has already checked that ``det(m) != 0``; a
    singular block that b does not touch goes undetected here.
    """
    if not m.is_square:
        raise NonSquareError(f"cannot solve with a {m.rows}x{m.cols} matrix")
    if len(b) != m.rows:
        raise ValueError("vector dimension mismatch")
    parts, d = [], 1
    for block in m._split:
        if any(b[i] for i in block):
            last, (y,) = _solve_block(m, block, [[b[i]] for i in block])
            parts.append((block, y, last))
            d = math.lcm(d, last // math.gcd(last, *y))
    return {i: v * d // last for block, y, last in parts for i, v in zip(block, y) if v}, d


def solve(m: IntMatrix, b: Sequence[int]) -> list[Fraction]:
    """Exact solution z of ``m z = b``: :func:`solve_numerators` after a ``det`` check.

    Every denominator divides ``|det(m)|``. Raises :class:`SingularError`
    when m is singular.
    """
    if det(m) == 0:
        raise SingularError("matrix is singular")
    w, d = solve_numerators(m, b)
    return [Fraction(w.get(i, 0), d) for i in range(m.rows)]


def inverse(m: IntMatrix) -> RationalMatrix:
    """Exact inverse; every entry has denominator dividing ``|det(m)|``.

    Column j is zero outside j's block, so a block solves for its own columns.
    """
    if not m.is_square:
        raise NonSquareError(f"cannot invert a {m.rows}x{m.cols} matrix")
    rows = [[Fraction(0)] * m.rows for _ in range(m.rows)]
    for block in m._split:
        last, ys = _solve_block(m, block, [[int(i == j) for j in block] for i in block])
        for j, y in zip(block, ys):
            for i, v in zip(block, y):
                rows[i][j] = Fraction(v, last)
    return RationalMatrix.from_rows(rows)


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

