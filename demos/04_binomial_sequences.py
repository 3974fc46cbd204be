"""Basic sequences of binomial type and connection constants.

Each delta operator owns a unique basic sequence: p_0 = 1, p_n(0) = 0,
and applying the operator steps down a degree. These sequences satisfy
the binomial identity p_n(x+a) = sum C(n,k) p_k(a) p_{n-k}(x), which the
package certifies on exact rational grids large enough to pin down the
bivariate polynomial, and any two bases are linked by a triangular
matrix of connection constants.
"""
from fractions import Fraction as Rat

from umbra import (
    Polynomial,
    catalog,
    connection_constants,
    conjugate_sequence,
    generate_recurrence,
    generate_transfer,
    verify_binomial_identity,
)


def main():
    fd = catalog("forward_difference")
    lower = generate_transfer(fd, 5)
    print("lower factorials (basic sequence of the forward difference):")
    for n in range(5):
        print(f"  p_{n} = {lower[n]}")

    # the closed form x(x-1)...(x-n+1); generate_recurrence names the same
    # generator
    again = generate_recurrence(fd, 5)
    for n in range(6):
        closed = Polynomial([1])
        for i in range(n):
            closed = closed * Polynomial([-i, 1])
        assert lower[n] == closed == again[n]

    # Abel polynomials x(x - nb)^(n-1) with their one-parameter twist
    abel = generate_transfer(catalog("abel", {"b": Rat(1, 2)}), 4)
    print("\nAbel polynomials at b = 1/2:")
    for n in range(5):
        print(f"  p_{n} = {abel[n]}")
        ok, witness = verify_binomial_identity(abel, n)
        assert ok, witness
    print("binomial identity certified on an exact grid through n = 4")

    # conjugate sequence of the forward difference: Stirling-2 transform
    conj = conjugate_sequence(fd, 5)
    print("\nexponential polynomials (set-partition counts by blocks):")
    print(f"  q_5 = {conj[5]}")
    assert conj[5].coefficient(2) == 15  # S(5,2)

    # connection constants: lower factorials in the upper factorial basis
    bd = catalog("backward_difference")
    matrix = connection_constants(bd, fd, 5)
    print("\nlower factorials written in upper factorials, row n = 4:")
    row = {k: matrix.entry(4, k) for k in range(5) if matrix.entry(4, k) != 0}
    print(" ", row)
    assert row == {1: -24, 2: 36, 3: -12, 4: 1}
    print("\nall assertions passed")


if __name__ == "__main__":
    main()
