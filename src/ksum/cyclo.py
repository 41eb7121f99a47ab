"""Exact arithmetic in Z[zeta_p] and integer polynomials over it.

Values are coordinate vectors over the Z-basis 1, zeta, ..., zeta^(p-2).
Coordinates in this basis are unique, which makes equality and rationality
tests exact: a value is a rational integer iff every coordinate past the
constant one vanishes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._value import Value


class NonRationalCoefficient(ValueError):
    """A polynomial expansion produced a coefficient outside Z."""

    def __init__(self, index: int, value: "CycInt"):
        super().__init__(
            f"coefficient at index {index} is not a rational integer: {value}")
        self.index = index
        self.value = value


def _reduce(p: int, buckets: Sequence[int]) -> tuple[int, ...]:
    # buckets are multiplicities of zeta^0 .. zeta^(p-1); eliminate the top
    # power via 1 + zeta + ... + zeta^(p-1) = 0
    top = buckets[p - 1]
    return tuple(buckets[i] - top for i in range(p - 1))


class CycInt(Value):
    """Element of Z[zeta_p] in coordinates over 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: tuple[int, ...]):
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p={p}, got {len(coords)}")
        super().__init__(p, coords)

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> CycInt:
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, c: int) -> CycInt:
        return cls(p, (c,) + (0,) * (p - 2))

    @classmethod
    def from_power_counts(cls, p: int, counts: Sequence[int]) -> CycInt:
        """Sum of counts[t] copies of zeta^t for t = 0..p-1."""
        if len(counts) != p:
            raise ValueError(f"need {p} exponent counts, got {len(counts)}")
        return cls(p, _reduce(p, counts))

    def _check(self, other: CycInt) -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")

    def __add__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> CycInt:
        return CycInt(self.p, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        p = self.p
        buckets = [0] * p
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        buckets[(i + j) % p] += a * b
        return CycInt(p, _reduce(p, buckets))

    __rmul__ = __mul__

    def galois(self, i: int) -> CycInt:
        """Apply zeta -> zeta^i; i must be a unit mod p."""
        if i % self.p == 0:
            raise ValueError(f"galois exponent {i} is not a unit mod {self.p}")
        p = self.p
        buckets = [0] * p
        for k, a in enumerate(self.coords):
            buckets[(i * k) % p] += a
        return CycInt(p, _reduce(p, buckets))

    def as_rational(self) -> Optional[int]:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def __str__(self) -> str:
        parts = []
        for k, a in enumerate(self.coords):
            if not a:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                mono = "z" if k == 1 else f"z^{k}"
                parts.append(f"{a}*{mono}")
        return " + ".join(parts) if parts else "0"


class IntPolynomial(Value):
    """Polynomial over Z, coefficients constant term first.

    Trailing zeros are stripped on construction; the zero polynomial is the
    empty tuple with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        c = tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        super().__init__(c)

    @classmethod
    def x_power(cls, t: int) -> IntPolynomial:
        return cls((0,) * t + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        acc = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    acc[i + j] += a * b
        return IntPolynomial(tuple(acc))

    def __pow__(self, e: int) -> IntPolynomial:
        if e < 0:
            raise ValueError("negative polynomial power")
        out = IntPolynomial((1,))
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def mod_coeffs(self, m: int) -> tuple[int, ...]:
        return tuple(c % m for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def product_linear(roots: Sequence[CycInt]) -> IntPolynomial:
    """Expand prod (x - r) over the given roots and demand Z coefficients.

    The expansion is one product tree on packed integers, in
    `ksum._product_tree`, which only runs that expand a polynomial load.

    Raises NonRationalCoefficient identifying the first offending
    coefficient index if the expansion does not descend to Z[x].
    """
    from ._product_tree import expand
    return expand(roots)
