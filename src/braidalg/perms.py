"""Permutations of {1..n} in one-line notation."""

from __future__ import annotations

from .value import OrderedValue


class Permutation(OrderedValue):
    """A bijection of {1..n}, stored as the tuple (pi(1), ..., pi(n)).

    Immutable; equal, hashed and ordered as its field tuple ``(images,)``.
    The images may come as any iterable, and are stored as a tuple.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_key", (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The adjacent transposition s_i = (i, i+1) inside Sigma_n."""
        if not 1 <= i < n:
            raise ValueError(f"s_{i} requires 1 <= i < n = {n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(images)

    @staticmethod
    def from_one_line(text: str) -> "Permutation":
        return Permutation(int(c) for c in text.strip())

    def one_line(self) -> str:
        if self.n > 9:
            raise ValueError("one-line notation is only unambiguous for n <= 9")
        return "".join(str(i) for i in self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(images)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def extend(self, n: int) -> "Permutation":
        """The same permutation inside Sigma_n, fixing the added points."""
        if n < self.n:
            raise ValueError("can only extend to a larger n")
        return Permutation(self.images + tuple(range(self.n + 1, n + 1)))

    def __repr__(self):
        return f"Permutation({self.images!r})"


def perm_from_transposition_word(n: int, indices) -> Permutation:
    """Product s_{i_1} s_{i_2} ... as a composition; the rightmost factor acts first.

    Composing on the right with s_i swaps the images of i and i + 1, so the
    product is one walk over a list of images and one Permutation.
    """
    images = list(range(1, n + 1))
    for i in indices:
        if not 1 <= i < n:
            raise ValueError(f"s_{i} requires 1 <= i < n = {n}")
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(images)
