"""Exact arithmetic for finite abelian groups.

A group is a product of cyclic prime-power factors in canonical order
(primes increasing, exponents decreasing within a prime).  Elements are
residue tuples, one residue per factor.  Subgroups are stored as the
Hermite normal form of the lattice spanned by their generators together
with the factor-order relations, which makes equality, membership and
index computations exact and canonical; their elements are walked off
that basis, lazily and in lexicographic order.  Every lattice operation
runs at most one Hermite form, whose rows are already the Hermite basis
of the result: the kernel of a character within a subgroup H runs one on
H's rows with the character's values in front and the row (E, 0, ..., 0),
and an intersection one on Zassenhaus' stacked rows; p-parts, the whole
group and the trivial subgroup have a closed form.  ``Subgroup._hermite``
takes the bases that a Hermite form produced after checking only their
shape, row by row with ``_check_hermite_row``; the closed forms are built
by ``Subgroup._known`` with their index, and no check runs, since their
rows are unit rows, rows m_i e_i, or a Hermite basis's rows inside its
Sylow block.  There is one ``FiniteAbelianGroup`` instance per primary
type, and it builds its closed forms (the whole group, the trivial
subgroup and its own p-parts) once, on first use, and shares them;
equality and hashing stay structural, on the primary decomposition, with
identity only as their fast path.  ``kernel`` certifies its result: its
index, the character's value 0 on each of its rows, and its rows lying in
H.  Subgroup enumeration builds each subgroup's Hermite basis directly
and runs no Hermite form: it solves for the entries of each row, one
congruence per column, so that m_i e_i stays in the lattice and the row
lies in the ambient, checks each row's shape with ``_check_hermite_row``
as it is placed, and is certified once per call by Birkhoff's count of
the subgroups of each order (``subgroup_counts_by_order``) for the
ambient's primary type; the subgroups are sorted on one integer each,
their basis entries read as the digits of one numeral.
Character values are integer residues mod the group exponent E,
the value v standing for exp(2*pi*i * v / E); ``Character.rotation`` is
the exact ``Fraction`` view v / E.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter

from .integermat import check_prime, factorize, hermite_normal_form, smith_diagonal

ORACLE_CAP = 4096
_INT = frozenset([int])


class OracleScaleError(ValueError):
    """Raised when a group is to be enumerated, by its elements or its
    subgroups, beyond desk scale."""


def _check_enumerable(group, task):
    """OracleScaleError if ``group`` has more than ORACLE_CAP elements:
    ``task`` visits them one by one."""
    if group.order > ORACLE_CAP:
        raise OracleScaleError(
            f"group of order {group.order} exceeds the enumeration cap {ORACLE_CAP}; "
            f"{task} is meant for desk-scale checks"
        )


def _json_int(value, what):
    """``value``, once it is checked to be a JSON integer and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _json_field(data, key, what):
    """``data[key]``, once ``data`` is checked to be a JSON object with the
    field ``key``; ``what`` names the object in the ValueError otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    if key not in data:
        raise ValueError(f"{what} has no {key!r} field")
    return data[key]


class FiniteAbelianGroup:
    """Product of Z/p^e factors in canonical form, one instance per type.

    ``FiniteAbelianGroup(...)`` canonicalises its argument in ``__new__``
    and returns the one instance built for that primary decomposition, so
    groups built from a model, from JSON or from cyclic orders of the same
    type are the same object; a found instance is returned as it is, with
    no set-up run again.  ``__new__`` works in this order.  One loop sorts
    the factors and their exponents and type-checks them: a prime that is
    not an int goes to ``check_prime``, which rejects floats and booleans,
    and the exponents must be ints >= 1; this runs first because 2.0, 1.0
    and True hash like ints and would find a group of another type.  Then
    the canonical key is looked up.  Only a key that is not in the table
    has its primes checked with ``check_prime`` and for repeats, before
    its instance is built: a key in the table passed both checks when its
    instance was built, so a hit skips them.  An input with several faults
    may thus report a bad exponent before a non-prime int.  Besides the
    order and the exponent E, the instance keeps ``cofactors``, the
    quotients E / m_i for its factor orders m_i, from which ``Character``
    weights its exponents.  The instance builds its closed-form subgroups,
    the whole group, the trivial subgroup and each p-part, on first use
    and keeps them (``Subgroup.whole``, ``Subgroup.trivial_subgroup``,
    ``p_part``).  Their repeat callers are ``linear`` (each start of
    ``descent_to_stable``, ``is_lambda_stable``, ``generic_element``, the
    disk and sphere theorems, ``sphere_two_group_reduce`` and
    ``assemble_cross_prime``), ``kernel`` with no ``within``, ``pipeline``,
    ``suites`` and ``aft descent``, which ask for them once per model or
    per prime.  The table holds one entry per primary type that a process
    builds, and each entry at most one subgroup per prime of its type
    besides its whole and trivial subgroups.  Equality and hashing stay
    structural, on the decomposition, so no set or dict order depends on
    memory addresses; identity is only the fast path of ``__eq__``.
    """

    __slots__ = (
        "primary_decomposition", "factor_orders", "factor_primes",
        "order", "exponent", "cofactors", "rank", "_whole", "_trivial", "_p_parts",
    )

    _instances: dict = {}

    def __new__(cls, primary_decomposition):
        canon = []
        for p, exponents in sorted(primary_decomposition):
            exps = sorted(exponents, reverse=True)
            # Ints only, before the lookup: 2.0, 1.0 and True equal ints and
            # hash alike, so they would find, or leave in the table, a group
            # of another type.  check_prime rejects floats and booleans.
            if type(p) is not int:
                check_prime(p)
            if not exps or not _INT.issuperset(map(type, exps)) or exps[-1] < 1:
                raise ValueError("exponents must be ints >= 1")
            canon.append((p, tuple(exps)))
        key = tuple(canon)
        group = cls._instances.get(key)
        if group is not None:
            return group
        previous = None
        for p, _ in key:  # sorted, so a repeated prime follows itself
            check_prime(p)
            if p == previous:
                raise ValueError(f"duplicate prime {p}")
            previous = p
        group = super().__new__(cls)
        group.primary_decomposition = key
        group.factor_orders = tuple(p ** e for p, exps in key for e in exps)
        group.factor_primes = tuple(p for p, exps in key for _ in exps)
        group.order = math.prod(group.factor_orders)
        group.exponent = math.lcm(*group.factor_orders)
        group.cofactors = tuple([group.exponent // m for m in group.factor_orders])
        group.rank = len(group.factor_orders)
        group._whole = group._trivial = None
        group._p_parts = {}
        return cls._instances.setdefault(key, group)

    def __reduce__(self):
        # Unpickling and copying find the shared instance.
        return type(self), (self.primary_decomposition,)

    @classmethod
    def from_cyclic_orders(cls, orders):
        """Group Z/n_1 + ... + Z/n_k given by arbitrary cyclic orders."""
        by_prime: dict[int, list[int]] = {}
        for n in orders:
            if n < 1:
                raise ValueError("cyclic orders must be >= 1")
            for p, e in factorize(n):
                by_prime.setdefault(p, []).append(e)
        return cls(sorted(by_prime.items()))

    @classmethod
    def from_json(cls, data):
        """Group from ``{"primary": [{"p": p, "exponents": [e, ...]}, ...]}``.

        Raises ValueError unless p and every exponent are JSON integers,
        not booleans, or when a field is missing.
        """
        return cls(
            [
                (
                    _json_int(_json_field(f, "p", "group factor"), "prime"),
                    [
                        _json_int(e, "exponent")
                        for e in _json_field(f, "exponents", "group factor")
                    ],
                )
                for f in _json_field(data, "primary", "group")
            ]
        )

    def to_json(self):
        return {
            "primary": [
                {"p": p, "exponents": list(exps)}
                for p, exps in self.primary_decomposition
            ]
        }

    def primes(self):
        return [p for p, _ in self.primary_decomposition]

    def is_p_group(self):
        return len(self.primary_decomposition) <= 1

    def element(self, residues):
        return GroupElement(self, residues)

    def identity(self):
        return GroupElement(self, (0,) * self.rank)

    def elements(self):
        """All elements in lexicographic residue order."""
        for res in itertools.product(*(range(m) for m in self.factor_orders)):
            yield GroupElement(self, res)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteAbelianGroup)
            and self.primary_decomposition == other.primary_decomposition
        )

    def __hash__(self):
        return hash(self.primary_decomposition)

    def __repr__(self):
        if not self.factor_orders:
            return "FiniteAbelianGroup(trivial)"
        desc = " + ".join(f"Z/{m}" for m in self.factor_orders)
        return f"FiniteAbelianGroup({desc})"


class GroupElement:
    __slots__ = ("group", "residues")

    def __init__(self, group, residues):
        residues = tuple(residues)
        if len(residues) != group.rank:
            raise ValueError("residue tuple has wrong length")
        # Ints only, as for a Character's exponents.
        if not _INT.issuperset(map(type, residues)):
            raise ValueError("element residues must be ints")
        self.group = group
        self.residues = tuple(map(operator.mod, residues, group.factor_orders))

    def __mul__(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return GroupElement(
            self.group, [a + b for a, b in zip(self.residues, other.residues)]
        )

    def __pow__(self, n):
        return GroupElement(self.group, [n * r for r in self.residues])

    def order(self):
        if not self.residues:
            return 1
        return math.lcm(
            *(
                m // math.gcd(r, m)
                for r, m in zip(self.residues, self.group.factor_orders)
            )
        )

    def is_identity(self):
        return all(r == 0 for r in self.residues)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.residues == other.residues
        )

    def __lt__(self, other):
        return self.residues < other.residues

    def __hash__(self):
        return hash((self.group, self.residues))

    def __repr__(self):
        return f"GroupElement{self.residues}"


def _smith_type(entries):
    """Primary decomposition of Z^k modulo the rows of the Smith-reducible
    matrix ``entries``: the sum of Z/d over its Smith diagonal.

    It does not depend on which diagonal a Smith-type elimination happened
    to produce.
    """
    return FiniteAbelianGroup.from_cyclic_orders(smith_diagonal(entries)).primary_decomposition


def _divisibility_chain(primary):
    """Invariant factors of the group with this primary decomposition,
    largest first, each divisible by the next."""
    depth = max((len(exps) for _, exps in primary), default=0)
    return [
        math.prod(p ** exps[i] for p, exps in primary if i < len(exps))
        for i in range(depth)
    ]


def _in_lattice(vector, basis, start=0):
    """Whether ``vector`` reduces to zero against the Hermite rows basis[start:].

    Row i of ``basis`` has its pivot in column i; the entries of ``vector``
    before column ``start`` must be zero.
    """
    v = list(vector)
    for i in range(start, len(basis)):
        row = basis[i]
        q, r = divmod(v[i], row[i])
        if r:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _check_hermite_row(basis, i, m):
    """Require row i of ``basis`` to have Hermite shape over the rows below it.

    Row i must have length k = len(basis), be zero before column i, have a
    pivot d_i > 0 dividing m = m_i, and have each entry after the pivot in
    [0, d_j) for the pivot d_j of row j.  Only the pivots of the rows below
    are read, so a basis can be checked row by row as it is placed from the
    last row upward; over all rows these are the conditions of a Hermite
    basis of a lattice between diag(m) Z^k and Z^k.
    """
    row = basis[i]
    k = len(basis)
    if len(row) != k or row[i] <= 0 or m % row[i]:
        raise AssertionError(f"row {i} of {basis} has no pivot dividing {m}")
    for j in range(i + 1, k):
        if not 0 <= row[j] < basis[j][j]:
            break
    else:
        if not any(row[:i]):
            return
    raise AssertionError(
        f"row {i} of {basis} is not 0 before its pivot and in [0, d_j) after it"
    )


def _walk(rows, level, acc, orders):
    """Lexicographic walk of ``Subgroup.iter_element_residues`` from ``level`` on.

    ``rows`` holds (i, row i, m_i / d_i) for the rows with d_i < m_i, and
    ``acc`` the element built from the rows before ``level``.
    """
    i, row, steps = rows[level]
    shift = acc[i] // row[i]
    last = level + 1 == len(rows)
    for j in range(steps):
        c = (j - shift) % steps
        step = [c * b for b in row]
        nxt = tuple(map(operator.mod, map(operator.add, acc, step), orders))
        if last:
            yield nxt
        else:
            yield from _walk(rows, level + 1, nxt, orders)


def _diagonal_rows(diagonal):
    """Rows of the diagonal matrix with this diagonal, as a tuple of tuples."""
    zero = (0,) * len(diagonal)
    return tuple([zero[:i] + (d,) + zero[i + 1:] for i, d in enumerate(diagonal)])


class Subgroup:
    """Subgroup of a FiniteAbelianGroup, canonically represented.

    Internally the subgroup is the lattice L with diag(m) Z^k <= L <= Z^k,
    where m is the tuple of factor orders; ``canonical_basis`` is the
    k x k Hermite normal form of L, so two Subgroup objects are equal iff
    they contain the same elements.
    """

    def __init__(self, parent, generators):
        rows = []
        for g in generators:
            if g.group != parent:
                raise ValueError("generator from a different group")
            rows.append(list(g.residues))
        self._span(parent, rows)

    def _span(self, parent, rows):
        """Take the Hermite basis of the lattice spanned by ``rows`` and diag(m)."""
        k = parent.rank
        for i, m in enumerate(parent.factor_orders):
            rows.append([m if j == i else 0 for j in range(k)])
        basis = tuple(hermite_normal_form(rows, k)) if k else ()
        self._set_basis(parent, basis, math.prod(row[i] for i, row in enumerate(basis)))

    def _set_basis(self, parent, basis, index):
        self.parent = parent
        self.canonical_basis = basis
        self._basis_residues = None
        self.index = index
        self.order = parent.order // index

    @classmethod
    def _known(cls, parent, basis, index):
        """Subgroup on ``basis``, a tuple of row tuples in Hermite form, of
        this index: for the closed forms, whose shape needs no check."""
        subgroup = cls.__new__(cls)
        subgroup._set_basis(parent, basis, index)
        return subgroup

    @classmethod
    def _hermite(cls, parent, basis):
        """Subgroup whose canonical basis is already known to be ``basis``.

        For rows that an earlier Hermite form has already reduced, so no
        Euclid loop runs again.  Only their shape is checked, in O(k^2): k
        rows, each passing ``_check_hermite_row`` against the rows below it.
        """
        k = parent.rank
        basis = tuple(map(tuple, basis))
        if len(basis) != k:
            raise AssertionError(f"{len(basis)} rows for a group of rank {k}")
        orders, index = parent.factor_orders, 1
        for i in reversed(range(k)):
            _check_hermite_row(basis, i, orders[i])
            index *= basis[i][i]
        return cls._known(parent, basis, index)

    @classmethod
    def whole(cls, parent):
        """The whole group, on the unit rows: built once per group and
        shared, like every closed form (see ``FiniteAbelianGroup``)."""
        if parent._whole is None:
            parent._whole = cls._known(parent, _diagonal_rows((1,) * parent.rank), 1)
        return parent._whole

    @classmethod
    def trivial_subgroup(cls, parent):
        """The trivial subgroup, on the rows m_i e_i: built once per group
        and shared."""
        if parent._trivial is None:
            parent._trivial = cls._known(
                parent, _diagonal_rows(parent.factor_orders), parent.order
            )
        return parent._trivial

    @classmethod
    def cyclic(cls, element):
        return cls(element.group, [element])

    @classmethod
    def from_rows(cls, parent, rows):
        """Subgroup generated by integer rows, read mod the factor orders."""
        orders = parent.factor_orders
        reduced = []
        for row in rows:
            if len(row) != parent.rank:
                raise ValueError("residue tuple has wrong length")
            residues = [a % m for a, m in zip(row, orders)]
            if any(residues):
                reduced.append(residues)
        subgroup = cls.__new__(cls)
        subgroup._span(parent, reduced)
        return subgroup

    @property
    def basis_residues(self):
        """The non-identity canonical basis rows, as residue tuples.

        Computed on first use and kept: the subgroup enumerators build
        thousands of subgroups that never read them.  A plain attribute
        rather than ``functools.cached_property``, which takes a lock on
        every first read before Python 3.12.  A Hermite row needs no
        reduction mod the factor orders: its entries after the pivot lie
        below the later pivots d_j <= m_j, and a row whose pivot is m_i is
        m_i e_i (that vector lies in the lattice, and its reduced form is
        unique), the identity.
        """
        if self._basis_residues is None:
            orders = self.parent.factor_orders
            self._basis_residues = tuple(
                row for i, row in enumerate(self.canonical_basis) if row[i] != orders[i]
            )
        return self._basis_residues

    def basis_elements(self):
        """Generating set read off the canonical basis."""
        return [GroupElement(self.parent, r) for r in self.basis_residues]

    def contains(self, element):
        if element.group != self.parent:
            raise ValueError("element of a different group")
        return _in_lattice(element.residues, self.canonical_basis)

    def iter_element_residues(self):
        """Residue tuples of all elements, lazily, in lexicographic order.

        Each element is acc = sum_i c_i row_i mod m for exactly one choice
        of 0 <= c_i < s_i = m_i / d_i, where d_i | m_i is the pivot of row
        i of the Hermite basis.  Row i is zero before column i, so once
        c_0..c_(i-1) are fixed, coordinate i is acc_i + c_i d_i mod m_i:
        the values r, r + d_i, r + 2 d_i, ... with r = acc_i mod d_i, and
        value number j comes from c_i = (j - acc_i // d_i) mod s_i.
        Walking j upwards at each row, the first row outermost, yields the
        tuples in lexicographic order with no list and no sort, so a search
        that stops at its first hit pays only for what it read.  Rows with
        s_i = 1 have c_i = 0 and are skipped.
        """
        orders = self.parent.factor_orders
        rows = [
            (i, row, orders[i] // row[i])
            for i, row in enumerate(self.canonical_basis)
            if row[i] != orders[i]
        ]
        zero = (0,) * self.parent.rank
        return _walk(rows, 0, zero, orders) if rows else iter([zero])

    def elements(self):
        """All elements, in lexicographic residue order."""
        return [GroupElement(self.parent, r) for r in self.iter_element_residues()]

    def powers(self, t):
        """The subgroup {x^t : x in self}."""
        rows = [[t * a for a in row] for row in self.canonical_basis]
        return Subgroup.from_rows(self.parent, rows)

    def join(self, other):
        if other.parent != self.parent:
            raise ValueError("subgroups of different parents")
        return Subgroup.from_rows(self.parent, self.basis_residues + other.basis_residues)

    def invariant_factors(self):
        """Invariant factors of the subgroup, each divisible by the next."""
        return _divisibility_chain(self.primary_type())

    def primary_type(self):
        """Primary decomposition of the subgroup's isomorphism type."""
        k = self.parent.rank
        if k == 0 or self.order == 1:
            return ()
        # self = L / diag(m).  Solve diag(m) = Q B for the basis B of L,
        # then the subgroup is Z^k / Q-lattice.
        basis = [list(r) for r in self.canonical_basis]
        q_rows = []
        for i, m in enumerate(self.parent.factor_orders):
            v = [m if j == i else 0 for j in range(k)]
            coeffs = [0] * k
            for j in range(k):
                coeffs[j] = v[j] // basis[j][j]
                v = [a - coeffs[j] * b for a, b in zip(v, basis[j])]
            q_rows.append(coeffs)
        entries = {
            (i, j): q_rows[i][j]
            for i in range(k)
            for j in range(k)
            if q_rows[i][j]
        }
        return _smith_type(entries)

    def quotient_invariant_factors(self):
        """Invariant factors of parent / self, each divisible by the next."""
        k = self.parent.rank
        if k == 0:
            return []
        entries = {
            (i, j): self.canonical_basis[i][j]
            for i in range(k)
            for j in range(k)
            if self.canonical_basis[i][j]
        }
        return _divisibility_chain(_smith_type(entries))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.canonical_basis == other.canonical_basis
        )

    def __hash__(self):
        return hash((self.parent, self.canonical_basis))

    def __repr__(self):
        return f"Subgroup(order={self.order}, index={self.index})"


class Character:
    """Character of a finite abelian group, given by an exponent vector.

    The value on an element x is exp(2*pi*i * sum_i exponents_i * x_i / m_i)
    where m_i are the factor orders.  With E the group exponent and the
    weights w_i = exponents_i * (E / m_i), that is exp(2*pi*i * v / E) for
    the residue v = sum_i w_i x_i mod E, which ``value`` returns; every
    check runs on these integers.  ``rotation`` gives the same value as the
    exact rotation number v / E in [0, 1).  The exponents must be ints (a
    float or a bool is a ValueError) and are kept reduced mod m_i; the
    weights are their products with the parent's ``cofactors`` tuple, the
    E / m_i kept on the group.
    """

    __slots__ = ("parent", "exponents", "weights")

    def __init__(self, parent, exponents):
        exponents = tuple(exponents)
        if len(exponents) != parent.rank:
            raise ValueError("exponent tuple has wrong length")
        # Ints only: a float would give float weights, and True is 1.
        if not _INT.issuperset(map(type, exponents)):
            raise ValueError("character exponents must be ints")
        self.parent = parent
        self.exponents = exponents = tuple(map(operator.mod, exponents, parent.factor_orders))
        self.weights = tuple(map(operator.mul, exponents, parent.cofactors))

    def value(self, residues):
        """Value at the element with these residues, as a residue mod E."""
        return sum(map(operator.mul, self.weights, residues)) % self.parent.exponent

    def _value_at(self, element):
        if element.group != self.parent:
            raise ValueError("element of a different group")
        return self.value(element.residues)

    def rotation(self, element):
        """Value as an exact rotation number in [0, 1)."""
        from fractions import Fraction  # only here: keeps it out of import aft

        return Fraction(self._value_at(element), self.parent.exponent)

    def is_one_at(self, element):
        return self._value_at(element) == 0

    def order(self):
        """Order of the character: E over the gcd of E and the weights."""
        big = self.parent.exponent
        return big // math.gcd(big, *self.weights)

    def is_trivial(self):
        return all(a == 0 for a in self.exponents)

    def __mul__(self, other):
        if other.parent != self.parent:
            raise ValueError("characters of different groups")
        return Character(
            self.parent, [a + b for a, b in zip(self.exponents, other.exponents)]
        )

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.parent == other.parent
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.parent, self.exponents))

    def __repr__(self):
        return f"Character{self.exponents}"


def p_part(group, p, parent_subgroup=None):
    """Subgroup of elements of p-power order.

    With ``parent_subgroup`` given, returns its p-part instead of the whole
    group's.  A subgroup is the sum of its Sylow parts, so its Hermite
    basis is block diagonal over the contiguous Sylow blocks: keeping the
    rows of the p block and putting m_i e_i elsewhere is already the
    Hermite basis of the p-part, whose index is the product of the kept
    pivots and of the m_i outside the block.  A prime of the group was
    checked when the group was built; any other p is checked before the
    group's kept p-parts are read, since 2.0 and True hash like ints.  The
    group's own p-part is built once per group and shared, and for a prime
    not dividing the order it is the shared trivial subgroup.
    """
    primes = group.factor_primes
    if type(p) is not int or p not in primes:
        check_prime(p)  # so p is a prime that does not divide the order
        if parent_subgroup is None:
            return Subgroup.trivial_subgroup(group)
    if parent_subgroup is None:
        part = group._p_parts.get(p)
        if part is None:
            part = group._p_parts[p] = _p_part(group, p, None)
        return part
    if parent_subgroup.parent != group:
        raise ValueError("subgroup of a different group")
    return _p_part(group, p, parent_subgroup.canonical_basis)


def _p_part(group, p, basis):
    """The p-part of the subgroup on the Hermite ``basis``, the whole group
    if None, for a prime p already checked."""
    primes = group.factor_primes
    lo, hi = bisect.bisect_left(primes, p), bisect.bisect_right(primes, p)
    orders = group.factor_orders
    index = group.order // math.prod(orders[lo:hi])
    if basis is None:
        zero = (0,) * group.rank
        block = tuple([zero[:i] + (1,) + zero[i + 1:] for i in range(lo, hi)])
    else:
        block = basis[lo:hi]
        index *= math.prod([row[i] for i, row in enumerate(block, lo)])
    rows = _diagonal_rows(orders)
    return Subgroup._known(group, rows[:lo] + block + rows[hi:], index)


def kernel(character, within=None):
    """Kernel of a character on ``within`` (the whole group if None).

    With b_i the Hermite rows of H = ``within`` and v_i = w.b_i mod E the
    character's values on them, the rows (v_i, b_i) and (E, 0, ..., 0) span
    the pairs (w.x + E t, x) for x in H, and those with first entry 0 are
    (0, x) for x in ker & H.  That lattice has rank k + 1, so its Hermite
    form has k + 1 rows: row 0 has its pivot in the value column, and rows
    1..k, zero there, are already the Hermite basis of ker & H once that
    column is dropped.  One Hermite form of size (k+1) x (k+1); for the
    whole group the b_i are the unit rows.  When every v_i is 0 the
    character is trivial on H, and H is returned with no Hermite form.
    Otherwise the result K is certified to be ker & H: [H : K] must be the
    order of the values, E / gcd(E, v_1..v_k), which is [H : ker & H], and
    the character must be 0 on every row of K and every row lie in H, so
    that K <= ker & H.
    """
    parent = character.parent
    k, big, weights = parent.rank, parent.exponent, character.weights
    if within is None:
        within = Subgroup.whole(parent)
    elif within.parent != parent:
        raise ValueError("subgroup of a different group")
    basis, index = within.canonical_basis, within.index
    values = [sum(map(operator.mul, weights, b)) % big for b in basis]
    if not any(values):  # chi is trivial on H, so ker & H = H
        return within
    rows = [(v,) + b for v, b in zip(values, basis)]
    rows.append((big,) + (0,) * k)
    hermite = hermite_normal_form(rows, k + 1)
    result = Subgroup._hermite(parent, [h[1:] for h in hermite[1:]])
    if result.index != index * (big // math.gcd(big, *values)):
        raise AssertionError(
            f"kernel of {character} has index {result.index} in the group, "
            f"not {index} * the order of its values {values} mod {big}"
        )
    # A row m_i e_i lies in every such lattice; a Hermite row i is zero
    # before column i.
    for i, (row, m) in enumerate(zip(result.canonical_basis, parent.factor_orders)):
        if row[i] == m:
            continue
        if sum(map(operator.mul, weights, row)) % big:
            raise AssertionError(f"kernel of {character} has the row {row}, off the kernel")
        if index != 1 and not _in_lattice(row, basis, i):
            raise AssertionError(f"kernel of {character} has the row {row}, outside {basis}")
    return result


def intersect(h1, h2):
    """Largest subgroup contained in both arguments.

    Zassenhaus: the rows (b, b) for b in the basis of h1 and (b, 0) for b
    in that of h2 span the pairs (x + y, x) with x in h1, y in h2, so those
    with x + y = 0 are (0, x) for x in both.  In Hermite form they are the
    rows whose first half is zero, and their second halves are already the
    Hermite basis of the intersection.  A whole-group argument returns the
    other argument.
    """
    if h1.parent != h2.parent:
        raise ValueError("subgroups of different parent groups")
    if h1.index == 1 or h2.index == 1:
        return h2 if h1.index == 1 else h1
    k = h1.parent.rank
    zero = (0,) * k
    stacked = [b + b for b in h1.canonical_basis] + [
        b + zero for b in h2.canonical_basis
    ]
    rows = [h[k:] for h in hermite_normal_form(stacked, 2 * k) if not any(h[:k])]
    return Subgroup._hermite(h1.parent, rows)


def crt_power_extract(gamma, p):
    """Exponent e and p-component gamma^e of an element.

    gamma^e has p-power order and the components over all primes dividing
    the order of gamma multiply back to gamma.
    """
    check_prime(p)
    order = gamma.order()
    a = p ** dict(factorize(order)).get(p, 0)  # the p-part of the order
    n = order // a
    # e = 1 mod a, e = 0 mod n; pow(n, -1, 1) == 0 gives e = 0 when a = 1.
    e = (n * pow(n, -1, a)) % (a * n)
    return e, gamma ** e


def _gaussian_binomial(n, k, q):
    """[n choose k]_q, the number of k-dimensional subspaces of F_q^n."""
    return math.prod(q ** (n - i) - 1 for i in range(k)) // math.prod(
        q ** (i + 1) - 1 for i in range(k)
    )


def _below(caps, top):
    """Non-increasing tuples nu with nu_0 <= top and nu_i <= caps[i]."""
    if not caps:
        yield ()
        return
    for v in range(min(top, caps[0]) + 1):
        for rest in _below(caps[1:], v):
            yield (v,) + rest


def subgroup_counts_by_order(primary):
    """{n: number of subgroups of order n} of the finite abelian group with
    primary decomposition ``primary``: (p, exponents largest first) pairs.

    A subgroup is the sum of its Sylow parts, so the count is a product
    over the primes.  In a p-group of type lam (exponents, largest first)
    the subgroups of type mu <= lam number (Birkhoff 1935; Butler, Mem.
    AMS 539, 1994)

        prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_p

    over the conjugate partitions, and have order p^|mu|.  mu <= lam
    exactly when mu' <= lam' entry by entry, so the sum runs over the
    non-increasing mu' below lam' and never forms mu itself.
    """
    counts = {1: 1}
    for p, lam in primary:
        lam_c = [sum(1 for e in lam if e > i) for i in range(lam[0])]
        by_exponent = {}
        for mu_c in _below(lam_c, lam_c[0]):
            nxt = mu_c[1:] + (0,)
            count = 1
            for li, mi, mj in zip(lam_c, mu_c, nxt):
                count *= p ** (mj * (li - mi)) * _gaussian_binomial(li - mj, mi - mj, p)
            a = sum(mu_c)
            by_exponent[a] = by_exponent.get(a, 0) + count
        counts = {
            n * p ** a: c * c_p
            for n, c in counts.items()
            for a, c_p in by_exponent.items()
        }
    return counts


def _row_tails(rows, i, d, q, ambient):
    """Tails (b_i+1, ..., b_k-1) of the rows i = (0, ..., 0, d, b) that
    complete the Hermite rows i+1..k-1 of ``rows`` and lie in the ambient,
    in lexicographic order; ``q`` is m_i / d and ``ambient`` the ambient's
    Hermite rows, None for the whole group.

    Solved column by column, j = i+1..k-1, so no whole tail is tried and
    dropped.  m_i e_i = q row_i - q (0, ..., 0, b) stays in the lattice
    when q b reduces to zero against the rows below: at column j that is
    d_j | q b_j + s_j, with s_j what the multiples of rows i+1..j-1 left
    there, which holds on one coset mod d_j / gcd(q, d_j), or on none.  The
    row lies in the ambient when row_i - (d / a_i) A_i reduces to zero
    against the ambient rows A_j with pivots a_j: at column j that is
    a_j | b_j + l_j, with l_j what the multiples of A_i..A_j-1 left there,
    one coset mod a_j.  Both moduli are powers of column j's prime dividing
    d_j, so b_j runs over one coset mod the larger in [0, d_j), or the
    branch ends.  Each partial tail carries what is left of q b and of the
    row in every column.  With q = 1 the tail itself must lie in the
    lattice of the rows below, where the only vector with entries in
    [0, d_j) is 0, and the row m_i e_i lies in every ambient.
    """
    k = len(rows)
    if q == 1:
        return [(0,) * (k - i - 1)]
    if ambient is None:
        left = None
    else:
        f = d // ambient[i][i]
        left = [-f * a for a in ambient[i]]
    partial = [((), [0] * k, left)]
    for j in range(i + 1, k):
        row, dj = rows[j], rows[j][j]
        g = math.gcd(q, dj)
        n = dj // g
        inv = pow(q // g, -1, n)
        a = 1 if ambient is None else ambient[j][j]
        step = n if n >= a else a
        grown = []
        for tail, rest, left in partial:
            s = rest[j]
            if s % g:
                continue
            start = -(s // g) * inv % n
            if left is not None:
                other = -left[j] % a
                if start % a != other % n:
                    continue
                # They agree mod the smaller modulus; keep the residue
                # mod the larger.
                start = start if n >= a else other
            for b in range(start, dj, step):
                c = (q * b + s) // dj
                new_rest = [x - c * y for x, y in zip(rest, row)] if c else rest
                new_left = left
                if left is not None:
                    e = (b + left[j]) // a
                    if e:
                        new_left = [x - e * y for x, y in zip(left, ambient[j])]
                grown.append((tail + (b,), new_rest, new_left))
        partial = grown
    return [tail for tail, _, _ in partial]


def _place(group, ambient, rows, i, index, code, radix, found):
    """Place row i of ``rows`` and every row above it in each valid way,
    appending a (subgroup, code) pair to ``found`` per finished basis.

    ``index`` is the product of the pivots placed so far, and ``code`` the
    entries placed so far as digits of the basis's base-``radix`` numeral
    (see ``_subgroups``).
    """
    if i < 0:
        found.append((Subgroup._known(group, tuple(rows), index), code))
        return
    m, p = group.factor_orders[i], group.factor_primes[i]
    k = len(rows)
    row_weight, pivot_weight = radix ** (k * (k - 1 - i)), radix ** (k - 1 - i)
    d = 1 if ambient is None else ambient[i][i]
    head = (0,) * i
    while d <= m:
        for tail in _row_tails(rows, i, d, m // d, ambient):
            rows[i] = head + (d,) + tail
            _check_hermite_row(rows, i, m)
            tail_code = 0
            for b in tail:
                tail_code = tail_code * radix + b
            _place(group, ambient, rows, i - 1, index * d,
                   code + (d * pivot_weight + tail_code) * row_weight, radix, found)
        d *= p


def _subgroups(ambient, lead):
    """All subgroups of ``ambient``, sorted by (lead, basis), where ``lead``
    names the attribute "index" or "order".

    Each subgroup is the lattice L with diag(m) Z^k <= L <= ambient, built
    directly as its Hermite basis, rows placed from the last upward: row i
    is (0, ..., 0, d_i, b_i,i+1, ..., b_i,k-1) with d_i | m_i a multiple of
    the ambient pivot and 0 <= b_ij < d_j.  ``_row_tails`` solves for the
    tails b with which the row lies in the ambient and m_i e_i stays in the
    lattice, one congruence per column, so each lattice is reached exactly
    once and no candidate is tested and dropped.  Coprime factor orders
    force b_ij = 0, so the bases are block diagonal over the Sylow parts.
    Each row passes ``_check_hermite_row`` when it is placed, so every
    basis has Hermite shape; one whose lattice holds every m_i e_i is its
    own Hermite form, which is unique, and no Hermite form runs.  The whole
    enumeration is then certified once: the subgroups found of each order
    must number as Birkhoff's count for the ambient's primary type says
    (the group's own for the whole group, read off one Smith form
    otherwise), which also shows that none was missed.  Groups of order
    above ORACLE_CAP are refused.

    The sort runs on one integer per subgroup.  Every entry of a Hermite
    row lies in [0, m_j]: zeros before the pivot, a pivot d_i dividing
    m_i, and tail entries b_ij < d_j <= m_j.  So the k^2 row-major entries
    are the digits of a numeral in base R = max(m_i) + 1, its code, which
    ``_place`` builds row by row: row i adds
    (d_i R^(k-1-i) + the tail's code) R^(k(k-1-i)).  Numerals with the same
    number of digits compare like their digit tuples, so the key
    lead R^(k^2) + code orders the subgroups exactly as the tuples
    (lead, canonical_basis) do.
    """
    group = ambient.parent
    _check_enumerable(group, "subgroup enumeration")
    whole = ambient.index == 1
    k = group.rank
    radix = max(group.factor_orders, default=0) + 1
    found = []
    _place(group, None if whole else ambient.canonical_basis, [None] * k,
           k - 1, 1, 0, radix, found)
    by_order = Counter(h.order for h, _ in found)
    ambient_type = group.primary_decomposition if whole else ambient.primary_type()
    expected = subgroup_counts_by_order(ambient_type)
    if by_order != expected:
        raise AssertionError(
            f"subgroups found by order {sorted(by_order.items())} are not "
            f"Birkhoff's count {sorted(expected.items())} for type {ambient_type}"
        )
    scale = radix ** (k * k)
    keys = [getattr(h, lead) * scale + code for h, code in found]
    return [found[j][0] for j in sorted(range(len(found)), key=keys.__getitem__)]


def all_subgroups(group):
    """Every subgroup, sorted by (index, basis)."""
    return _subgroups(Subgroup.whole(group), "index")


def subgroups_of(subgroup):
    """All subgroups of a Subgroup, in parent coordinates, by (order, basis)."""
    return _subgroups(subgroup, "order")
