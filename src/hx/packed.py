"""
The packed format that the exact kernels run in: a polynomial in v is
evaluated at $v = 2^B$ (Kronecker substitution), one Python int, and read
back as that int's signed base-$2^B$ digits, each in $[-2^{B-1}, 2^{B-1})$.
Sums, products and shifts of packed ints are those of the polynomials, and
the reading is exact while every coefficient fits its digit, so each kernel
proves a digit bound in its own docstring (``klbasis``, ``positivity``)
and takes a B that fits it. A kernel whose bound outgrows its B raises
``Overflow``, and ``rerun`` widens B and runs it again.
"""

from __future__ import annotations

from .coxeter import InternalCheckError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only: importing typing costs every process
    from typing import Callable, Iterable, Optional, Sequence


class Overflow(Exception):
    """A kernel's digit bound outgrew its digit width."""


def rerun(widen: Callable[[], None], run: Callable, *args):
    """run(*args), calling widen() and running again after each Overflow."""
    while True:
        try:
            return run(*args)
        except Overflow:
            widen()


def pack(coeffs: Iterable[int], width: int) -> int:
    """sum_k coeffs[k] v^k at v = 2^width."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def tilde_step(col: tuple[int, ...], terms: dict[int, int],
               shift: int) -> dict[int, int]:
    """T~_s times a packed element in the basis T~_w = v^{L(w)} T_w
    (Geck-Pfeiffer 2000, 8.1), on dense ids.

    col is the left action table's row of s: col[u] = su at an ascent and
    ~su at a descent. T~_s T~_u is T~_{su} at an ascent and
    q T~_{su} + (q - 1) T~_u at a descent, q = v^{2L(s)}, so every
    coefficient stays in Z[v]. With coefficients packed at v = 2^B, q is
    a shift by 2 L(s) B bits; with q itself the packed variable (the N^w
    trace, L = 1), the shift is its width."""
    out: dict[int, int] = {}
    get = out.get
    for u, p in terms.items():
        j = col[u]
        if j >= 0:
            out[j] = get(j, 0) + p
        else:
            j = ~j
            pq = p << shift
            out[j] = get(j, 0) + pq
            out[u] = get(u, 0) + pq - p
    return out


# the array typecodes of signed 8-, 16-, 32- and 64-bit ints: C's signed
# char, short, int and long long on every platform CPython supports
_TYPECODES = {8: "b", 16: "h", 32: "i", 64: "q"}

# masks and readers by (width, count), each made once per process
_MASKS: dict[tuple[int, int], tuple[int, int, int, tuple[int, int]]] = {}
_READERS: dict[tuple[int, int], Callable[[int], Sequence[int]]] = {}


def masks(width: int, count: int) -> tuple[int, int, int, tuple[int, int]]:
    """Masks over the digits 0 to count - 1 at the width: 2^(width count),
    the bit above them; a 1 in each digit; the top bit of each digit; and,
    for p = 0 and 1, all bits of each digit k with k + p odd."""
    hit = _MASKS.get((width, count))
    if hit is None:
        ones = pack([1] * count, width)
        full = (1 << width) - 1
        odd = tuple(pack([full * ((k + p) % 2) for k in range(count)], width)
                    for p in (0, 1))
        hit = _MASKS[width, count] = (1 << width * count, ones, ones << (width - 1), odd)
    return hit


def reader(width: int, count: int) -> Callable[[int], Sequence[int]]:
    """A map from an int to its signed base-2^width digits at positions 0
    to count - 1, lowest first. An int with a digit beyond them raises
    OverflowError.

    With an array typecode for the width this runs at C speed: adding
    2^(width-1) to every digit makes them all >= 0 with no carry, and
    flipping each digit's top bit then leaves the digit in two's
    complement, which ``int.to_bytes`` writes. Other widths are read digit
    by digit."""
    read = _READERS.get((width, count))
    if read is not None:
        return read
    high = masks(width, count)[2]
    code = _TYPECODES.get(width)
    if code is not None:
        from array import array  # here: the trace's widths have no typecode

        size = width // 8 * count

        def read(h: int) -> Sequence[int]:
            return array(code, ((h + high) ^ high).to_bytes(size, "little"))
    else:
        half, mask = 1 << (width - 1), (1 << width) - 1

        def read(h: int) -> Sequence[int]:
            h += high
            if h < 0 or h >> width * count:
                raise OverflowError
            return [(h >> width * k & mask) - half for k in range(count)]
    _READERS[width, count] = read
    return read


def palindrome_test(width: int, count: int
                    ) -> Optional[Callable[[Iterable[int]], bool]]:
    """A test of whether each of some ints, each count digits in
    [0, 2^(width-1)), reads the same reversed digit by digit, at C speed
    over all of them at once: the digits of the joined ints, reversed, are
    the ints reversed and joined, each reversed. None at a width with no
    array typecode, where each int's digits are read and compared."""
    code = _TYPECODES.get(width)
    if code is None:
        return None
    from array import array

    size = width // 8 * count

    def mirrored(values: Iterable[int]) -> bool:
        blocks = [h.to_bytes(size, "little") for h in values]
        digits = array(code, b"".join(blocks))
        digits.reverse()
        return digits.tobytes() == b"".join(reversed(blocks))
    return mirrored


def exact(h: int, bits: int, what: str, *args) -> int:
    """h >> bits, which must drop no set bit; one that it would drop raises
    InternalCheckError, with what.format(*args) saying what was shifted."""
    if h & ((1 << bits) - 1):
        raise InternalCheckError(f"{what.format(*args)}: inexact shift")
    return h >> bits


def decode(h: int, width: int, bound: int, drop: int = 0) -> list[int]:
    """The signed base-2^width digits of h / v^drop, lowest first and with
    no trailing zeros: the inverse of ``pack`` up to them. The lowest drop
    digits of h must be zero.

    Every digit must lie within bound; a digit outside it means the width
    was too small for the value, and is raised rather than returned."""
    if drop:
        h = exact(h, width * drop, "a packed value has a nonzero digit below "
                  "its digit {}", drop)
    if abs(h) <= bound and h.bit_length() < width:
        return [h] if h else []  # h is its one digit
    # digits enough for h, with at most two zeros on top, which are cut
    digits = list(reader(width, abs(h).bit_length() // width + 2)(h))
    while not digits[-1]:
        digits.pop()
    if max(digits) > bound or min(digits) < -bound:
        d = next(d for d in digits if abs(d) > bound)
        raise InternalCheckError(
            f"packed digit {d} exceeds the proven bound {bound}: "
            f"digit width {width} overflowed")
    return digits
