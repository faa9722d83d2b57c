"""linalg over Gaussian rationals: the contracts of image, kernel and span
intersection on seeded random matrices of random shape and rank."""

import random
from fractions import Fraction

import pytest

from crjets.linalg import (
    image_basis,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,
    solve,
    span_intersection,
)
from crjets.rational import ComplexRational as CR

ZERO = CR(0)


def gaussian(rng):
    return CR(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def random_matrix(rng):
    """rows x cols of rank at most r, some columns or rows zeroed."""
    rows, cols, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
    if r == 0:
        return [[ZERO] * cols for _ in range(rows)]
    left = [[gaussian(rng) for _ in range(r)] for _ in range(rows)]
    right = [[gaussian(rng) for _ in range(cols)] for _ in range(r)]
    m = mat_mul(left, right)
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        m = [row[:j] + [ZERO] + row[j + 1 :] for row in m]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [ZERO] * cols
    return m


def random_matrix_of_width(rng, n):
    """Random rows of length n, of random number and rank."""
    while True:
        m = random_matrix(rng)
        if len(m[0]) == n:
            return m


def rank(vectors):
    return len(rref(vectors)[1]) if vectors else 0


def transpose(m):
    return [list(col) for col in zip(*m)]


@pytest.mark.parametrize("seed", range(12))
def test_image_and_kernel_contracts(seed):
    rng = random.Random(seed)
    for _ in range(5):
        m = random_matrix(rng)
        cols = len(m[0])
        r = rank(m)
        image = image_basis(m)
        # as many image vectors as the rank, independent, in the column span
        assert len(image) == r
        assert rank(image) == r
        assert all(len(v) == len(m) for v in image)
        for v in image:
            x = solve(m, v)
            assert x is not None and mat_vec(m, x) == v
        # the column span is no larger than the image's
        assert rank(image + transpose(m)) == r
        kernel = kernel_basis(m)
        assert len(kernel) + r == cols
        assert rank(kernel) == len(kernel)
        for v in kernel:
            assert mat_vec(m, v) == [ZERO] * len(m)


@pytest.mark.parametrize("seed", range(12))
def test_span_intersection_dimension(seed):
    rng = random.Random(100 + seed)
    for _ in range(5):
        n = rng.randint(1, 5)
        # independent bases, as image_basis gives them
        a = image_basis(transpose(random_matrix_of_width(rng, n)))
        b = image_basis(transpose(random_matrix_of_width(rng, n)))
        both = span_intersection(a, b)
        assert len(both) == len(a) + len(b) - rank(a + b)
        assert rank(both) == len(both)
        for v in both:
            assert rank(a + [v]) == len(a)
            assert rank(b + [v]) == len(b)


def test_image_basis_reads_the_pivot_columns():
    # the image of [[0, 1], [0, 0]] is span{(1, 0)}, its second column
    assert image_basis([[0, 1], [0, 0]]) == [[CR(1), ZERO]]
    # more rows than columns
    assert image_basis([[0], [1]]) == [[ZERO, CR(1)]]
    assert image_basis([[0, 0], [0, 0]]) == []
