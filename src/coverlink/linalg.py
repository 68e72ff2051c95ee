"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers or on
``fractions.Fraction``; there is deliberately no floating-point path. An
:class:`IntMatrix` stores only its nonzero entries, keyed by position, so a
lifted surgery matrix (diagonal on every presentation) costs O(N) to build
and to solve, not O(N^2); the dense form is derived on request.
Determinants and solves share one fraction-free (Bareiss) forward
elimination, run once per connected block: the components of the
symmetrised nonzero pattern (i ~ j when entry (i, j) or (j, i) is nonzero)
index the diagonal blocks of a simultaneous row and column permutation of
the matrix, which leaves the determinant unchanged. A matrix finds its
blocks once, on first use; a dense matrix is one block, and a 1x1 block is
its diagonal entry. So ``det`` is the product of the blocks' determinants,
and a solve divides by a 1x1 block in place and eliminates ``[block | b]``
per coupled block. The back-substitution is fraction-free too: for the
block's last pivot D ``D * z`` is integral by Cramer's rule, so it runs on
integers with exact division. Every solve goes through
``solve_numerators``, which eliminates only the blocks where b is nonzero
and returns z as integer numerators over the lcm of z's denominators.
``solve`` and ``inverse`` (column j solves for e_j) check ``det`` once and
build their ``Fraction``s from those numerators, so every denominator
divides ``|det|``. The Smith normal form uses a fixed pivot rule (smallest
absolute value, ties broken in row-major order) so that outputs are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    after construction (the block split is cached on first use). ``to_rows``
    gives the dense rows.
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


def _solve_block(m: IntMatrix, block: list[int], b: list[int]) -> tuple[int, list[int]]:
    """``(D, y)`` for one block of ``m z = b``; ``b`` holds the right-hand side on the block.

    D is the block's last pivot and ``y[r] = D * z[block[r]]``: one
    elimination of ``[block | b]``, then fraction-free back-substitution
    (every ``//`` is exact). The block has at least two indices. Raises
    :class:`SingularError` when the block is singular.
    """
    size = len(block)
    a = [row + [e] for row, e in zip(_block_rows(m, block), b)]
    if _eliminate(a, size) == 0:
        raise SingularError("matrix is singular")
    last = a[size - 1][size - 1]
    y = [0] * size
    for r in range(size - 1, -1, -1):
        row = a[r]
        y[r] = (last * row[size] - sum(row[s] * y[s] for s in range(r + 1, size))) // row[r]
    return last, y


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
    Only the blocks where b is nonzero are eliminated; a 1x1 block [a] is
    solved in place, as ``z[i] = b[i] / a``. On every other block z is 0
    because the caller has already checked that ``det(m) != 0``; a singular
    block that b does not touch goes undetected here.
    """
    if not m.is_square:
        raise NonSquareError(f"cannot solve with a {m.rows}x{m.cols} matrix")
    if len(b) != m.rows:
        raise ValueError("vector dimension mismatch")
    get = m.nonzeros.get
    solved, d = [], 1  # (index, D * z[index], D) with D its block's last pivot
    for block in m._split:
        if len(block) == 1:
            i = block[0]
            if v := b[i]:
                last = get((i, i), 0)
                if not last:
                    raise SingularError("matrix is singular")
                solved.append((i, v, last))
                d = math.lcm(d, last // math.gcd(last, v))
        elif any(b[i] for i in block):
            last, y = _solve_block(m, block, [b[i] for i in block])
            solved += ((i, v, last) for i, v in zip(block, y))
            d = math.lcm(d, last // math.gcd(last, *y))
    return {i: v * d // last for i, v, last in solved if v}, d


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
    :func:`solve_numerators` of e_j, which eliminates only j's block. Raises
    :class:`SingularError` when m is singular.
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

