"""Exact linear algebra against independent oracles."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coverlink.linalg import (
    IntMatrix,
    NonSquareError,
    SingularError,
    _eliminate,
    det,
    inverse,
    order_in_quotient,
    smith_normal_form,
    solve,
    solve_numerators,
)
from oracles import NotBlockCirculantError, block_circulant_split, transpose


def perm_det(m: IntMatrix) -> int:
    """Permutation-sum determinant, the independent oracle."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


small_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(IntMatrix.from_rows)

square_and_vector = small_square.flatmap(
    lambda m: st.tuples(
        st.just(m), st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows)
    )
)


def test_det_empty_matrix_is_one():
    assert det(IntMatrix.zeros(0, 0)) == 1


def test_det_identity():
    assert det(IntMatrix.identity(3)) == 1


def test_det_frozen_example():
    # Oracle: cofactor expansion of [[2,1],[1,2]] gives 2*2 - 1*1 = 3.
    assert det(IntMatrix.from_rows([[2, 1], [1, 2]])) == 3


def test_det_rejects_non_square():
    with pytest.raises(NonSquareError):
        det(IntMatrix.zeros(2, 3))


@given(small_square)
@settings(max_examples=150, deadline=None)
def test_det_matches_permutation_oracle(m):
    assert det(m) == perm_det(m)


def test_inverse_identity():
    assert inverse(IntMatrix.identity(3)) == IntMatrix.identity(3).to_rows()


def test_inverse_unit():
    assert inverse(IntMatrix.from_rows([[1]])) == [[Fraction(1)]]


def test_inverse_frozen_example():
    # Oracle: 2x2 adjugate formula, [[d,-b],[-c,a]] / det.
    inv = inverse(IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert inv == [
        [Fraction(2, 3), Fraction(-1, 3)],
        [Fraction(-1, 3), Fraction(2, 3)],
    ]


def test_inverse_singular():
    with pytest.raises(SingularError):
        inverse(IntMatrix.from_rows([[1, 1], [1, 1]]))


@given(small_square)
@settings(max_examples=150, deadline=None)
def test_inverse_exact_and_adjugate_denominators(m):
    d = det(m)
    if d == 0:
        return
    inv = inverse(m)
    n = m.rows
    for i in range(n):
        for j in range(n):
            s = sum(inv[i][k] * m[k, j] for k in range(n))
            assert s == (1 if i == j else 0)
            assert abs(d) % inv[i][j].denominator == 0


def test_snf_frozen_example():
    d, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert [d[0, 0], d[1, 1]] == [1, 6]
    assert u.mul(IntMatrix.from_rows([[2, 0], [0, 3]])).mul(v).to_rows() == d.to_rows()


def test_snf_identity():
    d, _, _ = smith_normal_form(IntMatrix.identity(4))
    assert d.to_rows() == IntMatrix.identity(4).to_rows()


def test_snf_zero():
    d, _, _ = smith_normal_form(IntMatrix.zeros(2, 2))
    assert d.to_rows() == [[0, 0], [0, 0]]


@given(small_square)
@settings(max_examples=150, deadline=None)
def test_snf_properties(m):
    d, u, v = smith_normal_form(m)
    n = m.rows
    assert u.mul(m).mul(v).to_rows() == d.to_rows()
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i, i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        assert a >= 0
    prod = 1
    for x in diag:
        prod *= x
    assert abs(prod) == abs(det(m))


def test_solve_empty_singular_and_non_square():
    assert solve(IntMatrix.zeros(0, 0), []) == []
    with pytest.raises(SingularError):
        solve(IntMatrix.from_rows([[1, 1], [1, 1]]), [1, 0])
    with pytest.raises(NonSquareError):
        solve(IntMatrix.zeros(2, 3), [0, 0])
    with pytest.raises(ValueError):
        solve(IntMatrix.identity(2), [1])
    with pytest.raises(NonSquareError):
        inverse(IntMatrix.zeros(2, 3))


@given(square_and_vector)
@settings(max_examples=150, deadline=None)
def test_solve_exact_and_matches_inverse(mb):
    m, b = mb
    assume(det(m) != 0)
    z = solve(m, b)
    assert [sum(m[i, j] * z[j] for j in range(m.rows)) for i in range(m.rows)] == b
    assert z == [sum(v * x for v, x in zip(row, b)) for row in inverse(m)]


@given(square_and_vector)
@settings(max_examples=150, deadline=None)
def test_order_is_lcm_of_solve_denominators(mx):
    # For nonsingular m, d*x lies in the column span iff d * m^{-1} x is integral.
    m, x = mx
    assume(det(m) != 0)
    assert math.lcm(*(q.denominator for q in solve(m, x))) == order_in_quotient(m, x)


def _dense_solve(m: IntMatrix, b: list) -> list:
    """One elimination of the whole ``[m | b]`` plus back-substitution: the dense oracle."""
    n = m.rows
    a = [row + [v] for row, v in zip(m.to_rows(), b)]
    if _eliminate(a, n) == 0:
        raise SingularError("matrix is singular")
    z = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        z[i] = (a[i][n] - sum(a[i][j] * z[j] for j in range(i + 1, n))) / Fraction(a[i][i])
    return z


def _planted(rng, sizes, singular=()):
    """A matrix with connected diagonal blocks of the given sizes, permuted.

    Each off-diagonal pair inside a block is nonzero on both sides, on one
    side only, or zero; a chain of one-sided entries keeps every block
    connected. Blocks listed in ``singular`` get zero row sums. Rows and
    columns then go through one random permutation.
    """
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    starts = [sum(sizes[:t]) for t in range(len(sizes))]
    for t, (s0, size) in enumerate(zip(starts, sizes)):
        idx = range(s0, s0 + size)
        for i in idx:
            rows[i][i] = rng.choice([v for v in range(-5, 6) if v] if size == 1 else range(-5, 6))
            for j in idx:
                if i < j:
                    kind = rng.randrange(4)
                    if kind in (0, 1) or j == i + 1 and kind == 3:
                        rows[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
                    if kind in (0, 2):
                        rows[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        if t in singular:  # zero row sums: the block kills the all-ones vector
            for i in idx:
                rows[i][i] -= sum(rows[i][s0 : s0 + size])
    perm = list(range(n))
    rng.shuffle(perm)  # new index i holds old index perm[i]
    return IntMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def _assert_matches_dense(m: IntMatrix, rng) -> None:
    want = _eliminate(m.to_rows(), m.rows)
    assert det(m) == want == sympy.Matrix(m.to_rows()).det()
    b = [rng.randint(-9, 9) for _ in range(m.rows)]
    if want == 0:
        with pytest.raises(SingularError):
            solve(m, b)
        return
    z = solve(m, b)
    assert [sum(m[i, j] * z[j] for j in range(m.rows)) for i in range(m.rows)] == b
    assert z == _dense_solve(m, b)
    identity = IntMatrix.identity(m.rows).to_rows()
    dense_columns = [_dense_solve(m, [row[j] for row in identity]) for j in range(m.rows)]
    assert inverse(m) == [list(r) for r in zip(*dense_columns)]


@pytest.mark.parametrize("seed", range(40))
def test_block_det_and_solve_match_dense_on_planted_blocks(seed):
    rng = random.Random(seed)
    sizes = [rng.choice([1, 1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 6))]
    coupled = [t for t, size in enumerate(sizes) if size > 1]
    singular = {rng.choice(coupled)} if coupled and seed % 4 == 0 else set()
    m = _planted(rng, sizes, singular)
    _assert_matches_dense(m, rng)
    if singular:
        assert det(m) == 0


def test_block_det_and_solve_edge_cases():
    rng = random.Random(7)
    assert det(IntMatrix.zeros(0, 0)) == 1 and solve(IntMatrix.zeros(0, 0), []) == []
    zero = IntMatrix.from_rows([[0]])
    _assert_matches_dense(zero, rng)
    # One-sided coupling, either way round.
    for rows in ([[2, 0, 1], [0, 3, 0], [0, 0, 5]], [[2, 0, 0], [0, 3, 0], [4, 0, 5]]):
        _assert_matches_dense(IntMatrix.from_rows(rows), rng)
    # A singular 2x2 block inside a nonsingular rest.
    m = IntMatrix.from_rows([[3, 0, 0, 0], [0, 1, 0, 2], [0, 0, 7, 0], [0, 2, 0, 4]])
    assert det(m) == 0
    _assert_matches_dense(m, rng)
    dense = IntMatrix.from_rows([[rng.choice([-4, -1, 2, 5]) for _ in range(6)] for _ in range(6)])
    _assert_matches_dense(dense, rng)
    # The block [[3, 1], [1, 2]] (det 5) on indices 0 and 3, with 1 and 2 alone.
    m = IntMatrix.from_rows([[3, 0, 0, 1], [0, 5, 0, 0], [0, 0, 7, 0], [1, 0, 0, 2]])
    assert det(m) == 175 and solve(m, [1, 1, 1, 0])[1] == Fraction(1, 5)
    assert solve_numerators(m, [0, 1, 0, 0]) == ({1: 1}, 5)
    assert inverse(m)[2][2] == Fraction(1, 7)


# Block-diagonal systems: each block with its part of b, which may be all zero.
block_parts = st.lists(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n),
            st.one_of(st.just([0] * n), st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
        )
    ),
    min_size=1,
    max_size=4,
)


def _block_diagonal(parts) -> tuple[IntMatrix, list[int]]:
    n = sum(len(rows) for rows, _ in parts)
    dense = [[0] * n for _ in range(n)]
    b: list[int] = []
    for rows, part in parts:
        s0 = len(b)
        for i, row in enumerate(rows):
            dense[s0 + i][s0 : s0 + len(row)] = row
        b += part
    return IntMatrix.from_rows(dense), b


@given(block_parts)
# Pivot swaps in a coupled block with a negative determinant, next to an
# untouched 1x1 block and an untouched coupled block.
@example([([[0, 1], [1, 0]], [1, 2]), ([[3]], [0]), ([[0, 2, 1], [1, 0, 0], [0, 1, 1]], [0, 0, 0])])
@example([([[-3]], [2]), ([[0, 2], [3, 1]], [0, 5])])
@settings(max_examples=200, deadline=None)
def test_solve_numerators_match_solve_and_sympy(parts):
    m, b = _block_diagonal(parts)
    assume(det(m) != 0)
    w, d = solve_numerators(m, b)
    z = solve(m, b)
    assert d > 0 and all(w.values()) and set(w) <= set(range(m.rows))
    assert [Fraction(w.get(i, 0), d) for i in range(m.rows)] == z
    assert d == math.lcm(*(q.denominator for q in z))
    lu = sympy.Matrix(m.to_rows()).LUsolve(sympy.Matrix(b))
    assert z == [Fraction(int(q.p), int(q.q)) for q in lu]


def test_solve_numerators_on_integers_and_singular_blocks():
    # A negative 1x1 pivot and a coupled block of det -1 that needs a row swap.
    m = IntMatrix.from_rows([[-3, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert solve_numerators(m, [2, 0, 0]) == ({0: -2}, 3)
    assert solve_numerators(m, [0, 4, -6]) == ({1: -6, 2: 4}, 1)
    assert solve_numerators(m, [0, 0, 0]) == ({}, 1)
    # A singular non-diagonal matrix raises whichever entries of b are
    # nonzero; solve checks det first.
    singular = IntMatrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 5]])
    with pytest.raises(SingularError):
        solve_numerators(singular, [1, 0, 0])
    with pytest.raises(SingularError):
        solve_numerators(singular, [0, 0, 1])
    with pytest.raises(SingularError):
        solve(singular, [0, 0, 1])
    with pytest.raises(NonSquareError):
        solve_numerators(IntMatrix.zeros(1, 2), [1])
    with pytest.raises(ValueError, match="dimension"):
        solve_numerators(m, [1, 2])


def test_solve_numerators_solve_a_diagonal_matrix_in_place(monkeypatch):
    # A diagonal matrix is never densified or eliminated; any other matrix
    # takes one elimination of the whole [m | b].
    import coverlink.linalg

    eliminate, to_rows = coverlink.linalg._eliminate, IntMatrix.to_rows
    eliminated, densified = [], []
    monkeypatch.setattr(
        coverlink.linalg, "_eliminate", lambda rows, n: eliminated.append(n) or eliminate(rows, n)
    )
    monkeypatch.setattr(IntMatrix, "to_rows", lambda m: densified.append(m) or to_rows(m))
    diagonal = IntMatrix(4, 4, {(0, 0): -3, (1, 1): 4, (2, 2): 1, (3, 3): -6})
    assert det(diagonal) == 72 and det(IntMatrix(2, 2, {(0, 0): 2})) == 0
    assert solve_numerators(diagonal, [2, 6, -5, 9]) == ({0: -4, 1: 9, 2: -30, 3: -9}, 6)
    assert solve(diagonal, [2, 6, -5, 9]) == [Fraction(-2, 3), Fraction(3, 2), -5, Fraction(-3, 2)]
    assert solve_numerators(diagonal, [0, 0, 0, 0]) == ({}, 1)
    with pytest.raises(SingularError):
        solve_numerators(IntMatrix(2, 2, {(0, 0): 2}), [0, 1])
    assert not eliminated and not densified
    mixed = IntMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 5]])
    assert solve_numerators(mixed, [1, 0, 10]) == ({0: 2, 1: -1, 2: 6}, 3)
    assert eliminated == [3]


def _in_column_span(m: IntMatrix, target: list) -> bool:
    # Rational solve + integrality check; independent of the SNF route.
    n = m.rows
    if det(m) != 0:
        z = [sum(v * x for v, x in zip(row, target)) for row in inverse(m)]
        return all(x.denominator == 1 for x in z)
    raise NotImplementedError


def test_order_cyclic():
    assert order_in_quotient(IntMatrix.from_rows([[3]]), [1]) == 3


def test_order_zero_vector():
    assert order_in_quotient(IntMatrix.from_rows([[7, 2], [0, 5]]), [0, 0]) == 1


def test_order_frozen_example():
    m = IntMatrix.from_rows([[2, 1], [1, 2]])
    # Oracle: brute-force the smallest d with d*x in the column span.
    oracle = next(
        d for d in range(1, 10) if _in_column_span(m, [d, 0])
    )
    assert oracle == 3
    assert order_in_quotient(m, [1, 0]) == 3


def test_order_infinite():
    assert order_in_quotient(IntMatrix.from_rows([[0]]), [1]) is None


@given(small_square, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_order_divides_determinant(m, x):
    x = (x * 4)[: m.rows]
    d = det(m)
    if d == 0:
        return
    order = order_in_quotient(m, x)
    assert order is not None and abs(d) % order == 0


def test_block_split_frozen_example():
    blocks = block_circulant_split(IntMatrix.from_rows([[2, 1], [1, 2]]), 2)
    assert [b.to_rows() for b in blocks] == [[[2]], [[1]]]


def test_block_split_identity():
    blocks = block_circulant_split(IntMatrix.identity(6), 3)
    assert blocks[0].to_rows() == IntMatrix.identity(2).to_rows()
    assert blocks[1].to_rows() == blocks[2].to_rows() == IntMatrix.zeros(2, 2).to_rows()


def test_block_split_witness():
    with pytest.raises(NotBlockCirculantError) as exc:
        block_circulant_split(IntMatrix.from_rows([[1, 2], [3, 4]]), 2)
    assert (exc.value.block_row, exc.value.block_col) == (1, 0)


def _random_block_circulant(rng, q, s):
    blocks = [[[rng.randint(-4, 4) for _ in range(s)] for _ in range(s)] for _ in range(q)]
    rows = []
    for bi in range(q):
        for i in range(s):
            row = []
            for bj in range(q):
                row.extend(blocks[(bj - bi) % q][i])
            rows.append(row)
    return IntMatrix.from_rows(rows)


def test_inverse_of_block_circulant_is_block_circulant():
    import random

    rng = random.Random(5)
    found = 0
    while found < 20:
        q = rng.choice([2, 3, 4])
        m = _random_block_circulant(rng, q, rng.choice([1, 2]))
        if det(m) == 0:
            continue
        found += 1
        blocks = block_circulant_split(inverse(m), q)
        assert len(blocks) == q


def test_symmetric_four_block_inverse_relations():
    # Symmetric block circulant with q = 4: the inverse's blocks (Q, R, S, T)
    # satisfy Q^T = Q, S^T = S, R^T = T.
    import random

    rng = random.Random(11)
    found = 0
    while found < 10:
        s = rng.choice([1, 2])
        b0 = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        b1 = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        b2 = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)]
        # Symmetry of the assembled matrix forces b0 = b0^T, b2 = b2^T, b3 = b1^T.
        for i in range(s):
            for j in range(i):
                b0[i][j] = b0[j][i]
                b2[i][j] = b2[j][i]
        b3 = [[b1[j][i] for j in range(s)] for i in range(s)]
        rows = []
        order = [b0, b1, b2, b3]
        for bi in range(4):
            for i in range(s):
                row = []
                for bj in range(4):
                    row.extend(order[(bj - bi) % 4][i])
                rows.append(row)
        m = IntMatrix.from_rows(rows)
        assert m.to_rows() == transpose(m).to_rows()
        if det(m) == 0:
            continue
        found += 1
        q_blk, r_blk, s_blk, t_blk = block_circulant_split(inverse(m), 4)
        n = len(q_blk)
        assert all(q_blk[i][j] == q_blk[j][i] for i in range(n) for j in range(n))
        assert all(s_blk[i][j] == s_blk[j][i] for i in range(n) for j in range(n))
        assert all(r_blk[i][j] == t_blk[j][i] for i in range(n) for j in range(n))


def test_rational_matrix_block_split():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
    blocks = block_circulant_split(m, 2)
    assert blocks[0] == [[Fraction(1, 2)]]
    assert blocks[1] == [[Fraction(1, 3)]]


# ---------------------------------------------------------------------------
# Sparse storage: only nonzeros are stored, and every dense view agrees.


def test_int_matrix_rejects_bad_stored_entries():
    with pytest.raises(TypeError):
        IntMatrix(2, 2, {(0, 0): 1.5})
    with pytest.raises(TypeError):
        IntMatrix(2, 2, {(1, 0): Fraction(1)})
    with pytest.raises(TypeError):  # a bool is an int subclass, not an entry
        IntMatrix(1, 1, {(0, 0): True})
    for key in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside a 2x2 matrix"):
            IntMatrix(2, 2, {key: 1})
    with pytest.raises(ValueError, match="stores no zeros"):
        IntMatrix(2, 2, {(0, 1): 0})
    with pytest.raises(ValueError):
        IntMatrix(-1, 2, {})
    # from_rows rejects what the constructor rejects instead of truncating it,
    # and keeps every integral value.
    for bad in (1.5, Fraction(1, 2), Fraction(-7, 2), 2.000001):
        with pytest.raises(TypeError, match="is not an integer"):
            IntMatrix.from_rows([[1, 0], [0, bad]])
    good = IntMatrix.from_rows([[Fraction(4, 1), sympy.Integer(-3)], [2.0, True]])
    assert good.nonzeros == {(0, 0): 4, (0, 1): -3, (1, 0): 2, (1, 1): 1}
    assert all(type(v) is int for v in good.nonzeros.values())


def test_int_matrix_stores_nonzeros_and_compares_by_value():
    m = IntMatrix.from_rows([[0, 2, 0], [-1, 0, 0]])
    assert m.nonzeros == {(0, 1): 2, (1, 0): -1}
    assert m == IntMatrix(2, 3, {(1, 0): -1, (0, 1): 2})
    assert hash(m) == hash(IntMatrix(2, 3, {(1, 0): -1, (0, 1): 2}))
    assert m != IntMatrix.zeros(2, 3) and IntMatrix.zeros(2, 3).nonzeros == {}
    assert m.to_rows() == [[0, 2, 0], [-1, 0, 0]]
    assert m[0, 1] == 2 and m[1, 2] == 0
    assert IntMatrix.identity(3).nonzeros == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


@given(small_square, small_square, st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_int_matrix_dense_views_and_products(a, b, x):
    n = a.rows
    rows = a.to_rows()
    assert IntMatrix.from_rows(rows) == a
    assert rows == [[a[i, j] for j in range(n)] for i in range(n)]
    assert a.mul_vec(x[:n]) == [sum(rows[i][k] * x[k] for k in range(n)) for i in range(n)]
    if b.rows == n:
        other = b.to_rows()
        want = [[sum(r[k] * other[k][j] for k in range(n)) for j in range(n)] for r in rows]
        assert a.mul(b) == IntMatrix.from_rows(want)


@st.composite
def _pivoting_block_diagonal(draw):
    """Blocks with a zero leading entry, interleaved with their inner order kept.

    A block of size s >= 2 has a[0][0] = 0 and a nonzero subdiagonal, so it is
    one connected block whose elimination must swap rows; ``singular`` blocks
    repeat their first row. A 1x1 block may be zero. Returns the matrix and a
    right-hand side.
    """
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.integers(1, 3))
        a = [[draw(st.integers(-3, 3)) for _ in range(s)] for _ in range(s)]
        a[0][0] = 0
        for i in range(1, s):
            a[i][i - 1] = draw(st.sampled_from([-2, -1, 1, 2]))
        if s >= 2 and draw(st.booleans()):
            a[-1] = list(a[0])
        blocks.append(a)
    # Interleave: the t-th index of block b goes to the t-th slot labelled b.
    slots = draw(st.permutations([b for b, a in enumerate(blocks) for _ in a]))
    where, seen = {}, [0] * len(blocks)
    for pos, b in enumerate(slots):
        where[b, seen[b]] = pos
        seen[b] += 1
    n = len(slots)
    rows = [[0] * n for _ in range(n)]
    for b, a in enumerate(blocks):
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                rows[where[b, i]][where[b, j]] = v
    return IntMatrix.from_rows(rows), draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))


def _fractions(matrix) -> list:
    return [Fraction(int(q.p), int(q.q)) for q in matrix]


@given(_pivoting_block_diagonal())
@settings(max_examples=150, deadline=None)
def test_block_solve_det_inverse_match_sympy_with_pivot_swaps(mb):
    m, b = mb
    ref = sympy.Matrix(m.to_rows())
    d = det(m)
    assert d == ref.det()
    if d == 0:
        with pytest.raises(SingularError):
            solve(m, b)
        with pytest.raises(SingularError):
            inverse(m)
        return
    assert solve(m, b) == _fractions(ref.LUsolve(sympy.Matrix(b)))
    assert [x for row in inverse(m) for x in row] == _fractions(ref.inv())
