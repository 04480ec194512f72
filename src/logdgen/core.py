"""Exact scalar arithmetic and what every command shares.

Every coefficient in the toolkit is a ``fractions.Fraction`` (re-exported as
``Rational``); nothing here or downstream touches floating point.  The module
holds the standard coefficients (b-1)/b, the boundary-multiset enumerator, the
strict JSON readers and rational parser, the bound ``MAX_ANSWER_DIGITS`` on the
digits of an answer, which ``bounded`` applies, the ``Record`` base of the
package's value types, the quotient defect sum(1 - 1/o) with the one orbifold
Euler formula e_orb = e - sum(1 - 1/o) built on it, and the fibre-type labels
``KodairaLabel`` (with ``classical_euler`` and ``component_count``) and
``FibreTypeLabel``, kept here so that the coefficient, height and fibration
modules load no graph code.  Every CLI command loads this module, so code
that only one module uses lives there: the germ calculus (different
multiplicity m_p) is in ``fibration``.  A refusal states the value it refused
in full; ``cli.brief`` decides how much of it is printed.
"""
import math
import re
from fractions import Fraction as Rational

# The log-pair class beyond log canonical, shared by the germ trichotomy in
# fibration and the classifier in graph.
NOT_LC = "NOT_LC"

# Distinguished boundary parameter: coefficient (b-1)/b with b unbounded.
INFINITY = "INFINITY"


def json_int(data: dict, key: str, default: int | None = None) -> int:
    """The integer at ``data[key]`` (``default`` when absent and given).

    A bool, a float or any other JSON value there raises TypeError rather
    than being truncated.
    """
    value = data[key] if default is None else data.get(key, default)
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def json_array(value, name: str) -> list:
    """``value`` itself when it is a JSON array; a string, an object or any
    other JSON value raises TypeError rather than being iterated."""
    if type(value) is not list:
        raise TypeError(f"{name} must be an array, got {value!r}")
    return value


# Longest rational literal, and largest decimal exponent, that parse_rational
# expands.  Together they keep a numerator or denominator under twice this
# many digits, inside the 4300 digits that str() of an int allows.
MAX_LITERAL_DIGITS = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


# Most digits of a numerator or denominator the package answers with: what
# str() prints of an int.  An answer that could reach ANSWER_CEILING is refused.
MAX_ANSWER_DIGITS = 4300
ANSWER_CEILING = 10**MAX_ANSWER_DIGITS


def bounded(value, what: str):
    """``value``, an int or Fraction whose numerator and denominator stay
    below ANSWER_CEILING; a longer one raises ValueError naming the bound.

    >>> bounded(Rational(1, 10**MAX_ANSWER_DIGITS), "mu*")
    Traceback (most recent call last):
    ...
    ValueError: mu* has more than 4300 digits
    """
    if abs(value.numerator) >= ANSWER_CEILING or value.denominator >= ANSWER_CEILING:
        raise ValueError(f"{what} has more than {MAX_ANSWER_DIGITS} digits")
    return value


class ParseError(ValueError):
    """A literal that cannot be read as the value it has to denote."""


def parse_rational(value) -> Rational:
    """The exact rational written by ``value``: an integer, ``"p/q"`` or a decimal.

    Every literal it cannot read raises ParseError: one that is not a
    rational, one with a zero denominator, and one longer than
    MAX_LITERAL_DIGITS characters or with a decimal exponent beyond that
    many places, which is refused before ``Fraction`` expands it.  A plain
    ASCII digit string within that length, the usual boundary literal, is
    read by ``int`` without the regex or ``Fraction``'s string parser.

    >>> parse_rational("-3/6"), parse_rational("0.5"), parse_rational(7)
    (Fraction(-1, 2), Fraction(1, 2), Fraction(7, 1))
    >>> parse_rational("1e5000")
    Traceback (most recent call last):
    ...
    logdgen.core.ParseError: rational literal '1e5000' exceeds 1000 digits
    >>> parse_rational("abc")
    Traceback (most recent call last):
    ...
    logdgen.core.ParseError: Invalid literal for Fraction: 'abc'
    """
    text = str(value)
    if len(text) <= MAX_LITERAL_DIGITS and text.isascii() and text.isdigit():
        return Rational(int(text))
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_LITERAL_DIGITS or (exponent and abs(int(exponent[1])) > MAX_LITERAL_DIGITS):
        raise ParseError(f"rational literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(str(exc)) from None


def standard_coeff(b) -> Rational:
    """The standard coefficient (b-1)/b of a positive integer b; 1 for INFINITY.

    >>> standard_coeff(4), standard_coeff(INFINITY)
    (Fraction(3, 4), Fraction(1, 1))
    """
    return Rational(1) if b == INFINITY else Rational(b - 1, b)


def doubled_standard_coeff(b) -> Rational:
    """(2b-1)/2b, the standard coefficient of the doubled parameter 2b.

    >>> doubled_standard_coeff(2), doubled_standard_coeff(INFINITY)
    (Fraction(3, 4), Fraction(1, 1))
    """
    return standard_coeff(b if b == INFINITY else 2 * b)


class Record:
    """Base of the package's immutable value types.

    A subclass's ``__init__`` checks its arguments and then stores one field
    per parameter, in parameter order, into ``self.__dict__``; that order is
    the field order.  Record gives equality between instances of one
    class with equal fields, the hash of the field tuple, the
    ``Name(field=value, ...)`` repr, and AttributeError on assignment or
    deletion.  The standard library generates such classes too, but importing
    that module (with ``inspect``) and generating each class's methods cost a
    short CLI run about 20 ms, more than most commands compute.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def enumerate_boundary_multisets(
    allowed: set[Rational] | frozenset[Rational],
    target: Rational,
    max_len: int,
) -> list[tuple[Rational, ...]]:
    """All multisets from ``allowed`` of size <= max_len summing exactly to target.

    Each multiset is a tuple sorted in descending order; the returned list is
    sorted lexicographically by those tuples, which makes the output stable
    for golden tests.  The values are Fractions or ints; the search runs on
    integers, every value and the target scaled by the lcm of their
    denominators, and drops a prefix as soon as the free slots cannot hold
    what remains of the target.

    >>> halves = enumerate_boundary_multisets({Rational(1, 2)}, Rational(1), 4)
    >>> halves
    [(Fraction(1, 2), Fraction(1, 2))]
    """
    values = sorted(allowed, reverse=True)
    if values and values[-1] <= 0:
        raise ValueError("allowed values must be positive")
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    target = Rational(target)
    scale = math.lcm(target.denominator, *(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    found: list[tuple[Rational, ...]] = []
    prefix: list[Rational] = []

    def extend(start: int, remaining: int, free: int) -> None:
        if remaining == 0:
            found.append(tuple(prefix))
            return
        for i in range(start, len(scaled)):
            v = scaled[i]
            if v > remaining:
                continue
            if v * free < remaining:  # v is the largest usable value, and free copies fall short
                return
            prefix.append(values[i])
            extend(i, remaining - v, free - 1)
            prefix.pop()

    extend(0, target.numerator * (scale // target.denominator), max_len)
    # Values are distinct and descending, so the search meets the multisets
    # in descending lexicographic order.
    found.reverse()
    return found


# ---------------------------------------------------------------------------
# Fibre-type labels, shared by the graph, coefficient, height and fibration modules.


# The Kodaira kinds without a parameter: the Euler number of the fibre and its
# number of simple (multiplicity-one) components.
PLAIN_KODAIRA = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "II*": (10, 1), "III*": (9, 2),
                 "IV*": (8, 3), "SMOOTH": (0, 1)}


class KodairaLabel(Record):
    """A Kodaira fibre type: I_b (b>=1), I*_b (b>=0), II..IV*, or SMOOTH."""

    def __init__(self, kind: str, b: int | None = None) -> None:
        if kind == "I":
            if type(b) is not int or b < 1:
                raise ValueError("I_b needs b >= 1")
        elif kind == "I*":
            if type(b) is not int or b < 0:
                raise ValueError("I*_b needs b >= 0")
        elif kind in PLAIN_KODAIRA:
            if b is not None:
                raise ValueError(f"{kind} takes no parameter")
        else:
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        self.__dict__.update(kind=kind, b=b)

    def __str__(self) -> str:
        if self.b is None:
            return self.kind
        return f"{self.kind}_{self.b}"

    @classmethod
    def parse(cls, text: str) -> "KodairaLabel":
        """The label written as ``kind`` or ``kind_b``, b in ASCII digits only."""
        text = text.strip()
        if "_" in text:
            kind, _, num = text.partition("_")
            if not (num.isascii() and num.isdigit()):
                raise ValueError(f"Kodaira label {text!r} needs b in ASCII digits")
            if len(num) > MAX_LITERAL_DIGITS:  # refused before int() reads it
                raise ParseError(f"Kodaira label {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
            return cls(kind, int(num))
        return cls(text)


def classical_euler(label: KodairaLabel) -> int:
    """Topological Euler number of the fibre, by type."""
    if label.kind == "I":
        return label.b
    if label.kind == "I*":
        return label.b + 6
    return PLAIN_KODAIRA[label.kind][0]


def component_count(label: KodairaLabel) -> int:
    """Number of irreducible components of the fibre type.

    From the Euler number e(F) (Kodaira): b = e(F) for I_b, one for SMOOTH,
    and e(F) - 1 for every additive type.
    """
    if label.kind == "SMOOTH":
        return 1
    if label.kind == "I":
        return label.b
    return classical_euler(label) - 1


def quotient_defect(orders) -> tuple[int, int]:
    """The defect sum(1 - 1/o) of quotient points of local group orders o,
    as an integer numerator over the lcm of the orders.

    >>> quotient_defect([2, 3]), quotient_defect([])
    ((7, 6), (0, 1))
    """
    orders = list(orders)
    if min(orders, default=1) < 1:
        raise ValueError("local group orders must be positive")
    lcm = math.lcm(*orders)
    return len(orders) * lcm - sum(lcm // o for o in orders), lcm


def orbifold_euler(e_top: int, orders) -> Rational:
    """e_top minus the quotient-point defects sum(1 - 1/o).

    >>> orbifold_euler(3, [2])
    Fraction(5, 2)
    >>> orbifold_euler(3, [3, 3, 3])
    Fraction(1, 1)
    """
    defect, lcm = quotient_defect(orders)
    return Rational(e_top * lcm - defect, lcm)


class FibreTypeLabel(Record):
    """A marked degenerate-fibre type (I-1)_b .. (II-3)_{b,k}.

    ``b`` is the standard-coefficient parameter (a positive integer or
    INFINITY); the chain length ``k`` exists only for the kind II-3.
    """

    _KINDS = ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3")

    def __init__(self, kind: str, b: int | str, k: int | None = None) -> None:
        if kind not in self._KINDS:
            raise ValueError(f"unknown fibre type kind {kind!r}")
        if b != INFINITY and (type(b) is not int or b < 1):
            raise ValueError(f"b must be a positive integer or INFINITY, got {b!r}")
        if kind == "II-3":
            if type(k) is not int or k < 1:
                raise ValueError("kind II-3 needs a chain length k >= 1")
        elif k is not None:
            raise ValueError(f"kind {kind} takes no chain parameter")
        self.__dict__.update(kind=kind, b=b, k=k)

    def __str__(self) -> str:
        b = "inf" if self.b == INFINITY else self.b
        if self.kind == "II-3":
            return f"({self.kind})_{{{b},{self.k}}}"
        return f"({self.kind})_{b}"
