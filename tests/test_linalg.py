"""Exact linear algebra against independent oracles."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coverlink.linalg import (
    IntMatrix,
    NonSquareError,
    NotBlockCirculantError,
    RationalMatrix,
    SingularError,
    block_circulant_split,
    det,
    inverse,
    order_in_quotient,
    smith_normal_form,
    solve,
)


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
    assert inverse(IntMatrix.identity(3)).to_rows() == IntMatrix.identity(3).to_rows()


def test_inverse_unit():
    assert inverse(IntMatrix.from_rows([[1]])).to_rows() == [[Fraction(1)]]


def test_inverse_frozen_example():
    # Oracle: 2x2 adjugate formula, [[d,-b],[-c,a]] / det.
    inv = inverse(IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert inv.to_rows() == [
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
            s = sum(inv[i, k] * m[k, j] for k in range(n))
            assert s == (1 if i == j else 0)
            assert abs(d) % inv[i, j].denominator == 0


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


@given(square_and_vector)
@settings(max_examples=150, deadline=None)
def test_solve_exact_and_matches_inverse(mb):
    m, b = mb
    assume(det(m) != 0)
    z = solve(m, b)
    assert [sum(m[i, j] * z[j] for j in range(m.rows)) for i in range(m.rows)] == b
    assert z == inverse(m).mul_vec(b)


@given(square_and_vector)
@settings(max_examples=150, deadline=None)
def test_order_is_lcm_of_solve_denominators(mx):
    # For nonsingular m, d*x lies in the column span iff d * m^{-1} x is integral.
    m, x = mx
    assume(det(m) != 0)
    assert math.lcm(*(q.denominator for q in solve(m, x))) == order_in_quotient(m, x)


def _in_column_span(m: IntMatrix, target: list) -> bool:
    # Rational solve + integrality check; independent of the SNF route.
    n = m.rows
    if det(m) != 0:
        z = inverse(m).mul_vec(target)
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
        assert m.to_rows() == m.transpose().to_rows()
        if det(m) == 0:
            continue
        found += 1
        q_blk, r_blk, s_blk, t_blk = block_circulant_split(inverse(m), 4)
        n = q_blk.rows
        assert all(q_blk[i, j] == q_blk[j, i] for i in range(n) for j in range(n))
        assert all(s_blk[i, j] == s_blk[j, i] for i in range(n) for j in range(n))
        assert all(r_blk[i, j] == t_blk[j, i] for i in range(n) for j in range(n))


def test_rational_matrix_block_split():
    m = RationalMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
    )
    blocks = block_circulant_split(m, 2)
    assert blocks[0].to_rows() == [[Fraction(1, 2)]]
    assert blocks[1].to_rows() == [[Fraction(1, 3)]]
