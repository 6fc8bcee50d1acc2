"""Exact dense linear algebra over the rationals and prime fields.

Scalars are plain Python numbers: over the rationals ``int`` or
``fractions.Fraction`` (a Fraction read through the field is demoted to
``int`` when its denominator is 1), over GF(p) the ints in [0, p).
``field(v)`` reads any int or rational into that form.  Sums are taken
exactly and reduced once, at the end, by the field: ``field.sparse`` for
{key: sum} pairs (without zeros) and ``field.dense`` for lists, each sum
taken mod p over GF(p) and an integral Fraction demoted to int over QQ,
so every value returned is in canonical form.  Inside
``RrefAccumulator`` a QQ echelon row is a primitive integer row (its RREF
row times a positive integer), so the elimination runs on ints; wherever
the rows are read (``pivots``, ``rref_rows``) they are canonical
int | Fraction.  Everything is exact
and deterministic: every echelon form is the unique reduced row echelon
form of its row span in a fixed column order (rows enter the elimination
by ascending nonzero count, which keeps fill-in and coefficient growth
down without changing the result).  That order is the index order unless
an RrefAccumulator is given a pivot key; the cocycle elimination of
cohomology is the one caller that passes one, and ``canonical_kernel``
turns the kernel of its echelon form (``kernel_basis``, read off the
fraction-free rows) back into the canonical one.
Nullspace bases list free variables in ascending index order, and
``solve_rows`` sets free variables to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import neg


class LinAlgError(ValueError):
    """Shape mismatch, invalid field setup, or an input that fails its
    axioms: a coboundary on a bracket that fails cochain_violations."""


# ---------------------------------------------------------------------------
# fields


# The least strong pseudoprime to all the prime bases 2..41 (Sorenson and
# Webster, Math. Comp. 86, 2017): below it Miller-Rabin on them is exact.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin on the bases _PRIME_BASES, for n < _PRIME_BOUND."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)


class RationalField:
    """The field of rational numbers; scalars are int | Fraction."""

    char = 0
    zero = 0
    one = 1

    def __call__(self, v):
        if isinstance(v, int):
            return v
        q = v if isinstance(v, Fraction) else Fraction(v)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def sparse(items):
        """{key: sum} of the nonzero exact sums among the (key, sum) pairs,
        an integral Fraction demoted to int."""
        return {k: v if v.__class__ is int or v.denominator != 1 else v.numerator
                for k, v in items if v}

    @staticmethod
    def dense(values):
        """The list of exact sums, each integral Fraction demoted to int."""
        return [v if v.__class__ is int or v.denominator != 1 else v.numerator
                for v in values]

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return self(Fraction(a) / Fraction(b))

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p, validated at construction; scalars are the
    plain ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if isinstance(p, int) and p >= _PRIME_BOUND:
            raise LinAlgError("prime field modulus must be below %d" % _PRIME_BOUND)
        if not isinstance(p, int) or not _is_prime(p):
            raise LinAlgError("prime field modulus must be prime, got %r" % (p,))
        self.p = p
        self.char = p

    def __call__(self, v):
        if isinstance(v, int):
            return v % self.p
        return self._from_fraction(Fraction(v))

    def sparse(self, items):
        """{key: sum mod p} of the (key, sum) pairs of exact int sums whose
        residue is not zero."""
        p = self.p
        return {k: r for k, v in items if (r := v % p)}

    def dense(self, values):
        """The list of exact int sums reduced mod p."""
        p = self.p
        return [v % p for v in values]

    def _from_fraction(self, q):
        if q.denominator % self.p == 0:
            raise LinAlgError("denominator %d not invertible mod %d" % (q.denominator, self.p))
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def div(self, a, b):
        b = self(b)
        if not b:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return self(a) * pow(b, -1, self.p) % self.p

    def format(self, x):
        return str(self(x))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_spec(spec):
    """Map a field spec string ("rational" or "gf:<p>") to a field object."""
    if spec == "rational":
        return QQ
    if spec.startswith("gf:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise LinAlgError("field spec %r: modulus is not an integer" % (spec,)) from None
        return PrimeField(p)
    raise LinAlgError("unknown field spec %r" % (spec,))


def field_spec(field):
    return "rational" if field.char == 0 else "gf:%d" % field.char


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """Dense row-major matrix over a fixed field.

    The copying constructor reads every entry through the field; with
    copy=False the rows are kept as given and must hold its scalars.
    Products, sums and scalings sum exactly and reduce once (field.dense).
    """

    __slots__ = ("nrows", "ncols", "rows", "field")

    def __init__(self, rows, field=QQ, copy=True):
        rows = [list(map(field, r)) if copy else r for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows
        self.field = field

    @classmethod
    def identity(cls, n, field=QQ):
        one, zero = field.one, field.zero
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)],
                   field, copy=False)

    @classmethod
    def zero(cls, nrows, ncols, field=QQ):
        z = field.zero
        return cls([[z] * ncols for _ in range(nrows)], field, copy=False)

    @classmethod
    def from_columns(cls, cols, nrows, field=QQ):
        z = field.zero
        rows = [[z] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                rows[i][j] = v
        return cls(rows, field, copy=False)

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.field, copy=False)

    def apply(self, vec):
        """Matrix-vector product, returning a plain list."""
        if len(vec) != self.ncols:
            raise LinAlgError("dimension mismatch: %d cols vs vector of length %d"
                              % (self.ncols, len(vec)))
        out = []
        for row in self.rows:
            s = 0
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s)
        return self.field.dense(out)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LinAlgError("dimension mismatch in product: %dx%d times %dx%d"
                              % (self.nrows, self.ncols, other.nrows, other.ncols))
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            oi = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if b:
                        oi[j] += a * b
        return self._reduced(out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("dimension mismatch in sum")
        return self._reduced([[a + b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("dimension mismatch in difference")
        return self._reduced([[a - b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c):
        c = self.field(c)
        return self._reduced([[c * a for a in r] for r in self.rows])

    def _reduced(self, rows):
        """The matrix over this field with the given rows of exact sums."""
        dense = self.field.dense
        return Matrix([dense(r) for r in rows], self.field, copy=False)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return "Matrix(%dx%d: %s)" % (self.nrows, self.ncols, body)


# ---------------------------------------------------------------------------
# reduced row echelon form on sparse rows
#
# Rows are dicts {column index: nonzero scalar}.  The result is the unique
# RREF of the row span in a column order (the index order unless a pivot key
# is given), as a dict {pivot column: row dict} with pivot entry 1 and pivot
# columns eliminated everywhere else.  Uniqueness of the RREF makes every
# routine below independent of row ordering and scheduling.  Entries
# are read through the field on the way in, and the rows read out hold
# residues in [0, p) over GF(p) and canonical int | Fraction over QQ.


class RrefAccumulator:
    """Incrementally maintained RREF of the rows fed to add().

    Each new pivot is the column of the reduced row that comes first in a
    total order of the columns: the lowest index by default, or the least
    key(column) when a key is given (it must differ between columns).  The
    pivot rows are then the unique RREF of the span in that column order,
    whatever order the rows come in: every pivot row starts at its pivot
    in that order, as a later pivot eliminated from it lies after its own.
    With a key, a pivot row may hold columns before its pivot in index
    order, and its kernel (nullspace_from_rref) is a kernel basis but not
    the canonical one; canonical_kernel restores that.  Only rows that raise
    the rank call the key.

    The elimination is fraction-free (after Bareiss, Math. Comp. 22, 1968).
    Over QQ a stored row is the primitive integer multiple of its RREF row
    with a positive pivot entry: reducing a row clears its denominators
    once and scales it by the lcm of the non-unit pivot entries it meets,
    and a new pivot is eliminated from an earlier row by cross-multiplying
    the two rows and dividing out their gcd, so every subtraction is on
    ints.  A GF(p) row is monic, the pivot-entry-1 case of the same scheme,
    and one elimination loop (_subtract) serves both fields.  ``pivots``
    reads the RREF rows out, dividing a row by its pivot entry only when
    that entry is not 1; ``rank`` needs no such read.  Remainders stay
    internal (_reduce): over QQ a remainder is right only up to a nonzero
    scalar.

    A new pivot column must be eliminated from every earlier pivot row that
    holds it, and few rows do: scanning all of them for every new pivot
    costs rank^2 / 2 dict probes per echelon form, almost all of them
    misses.  So the accumulator keeps an index {column: pivot columns of
    the rows that may hold it}, and every row that gains an entry at a
    column is listed under it.  The index may list more than it needs: a
    row that lost the entry again stays listed and is skipped when the
    column becomes a pivot.  The column's list is then dropped, since no
    row ever gains a pivot column again.  Every row that holds the column
    is eliminated, as by a full scan, so the pivot rows are the same.
    The lists of the free columns stay, and kernel_basis reads them.
    """

    def __init__(self, field, key=None):
        self.field = field
        self._key = key
        self._rows = {}
        self._holders = {}

    def _reduce(self, row):
        """Remainder of row after reduction by the current pivot rows, over
        QQ up to a nonzero integer factor and with int entries only.

        The row's entries are read through the field first, so a plain
        int multiple of p is a zero of GF(p), not a pivot, and any int or
        Fraction entry is accepted.  A pivot row carries no
        other pivot column, so subtracting it never changes the row's entry
        at another pivot: one pass over the row's pivot entries, each
        subtracting a multiple of the pivot row, reduces it fully.  So the
        multiples are summed unreduced, and the sums are reduced mod p and
        their zeros dropped once, at the end.
        """
        rows = self._rows
        field = self.field
        p = field.char
        out, hits = {}, []
        if p:
            for c, v in row.items():
                if v := v % p if v.__class__ is int else field(v):
                    prow = rows.get(c)
                    if prow is None:
                        out[c] = v
                    else:
                        hits.append((c, v, prow))
        else:
            # den clears the row's denominators, and the row times den * scale
            # subtracts coef * den * (scale // piv) times each pivot row it
            # hits, on ints: scale is the lcm of the pivot entries it meets
            den = scale = 1
            for c, v in row.items():
                if v:
                    if v.__class__ is not int:
                        v = field(v)
                        if v.__class__ is not int:
                            den = lcm(den, v.denominator)
                    prow = rows.get(c)
                    if prow is None:
                        out[c] = v
                    else:
                        hits.append((c, v, prow))
                        if (piv := prow[c]) != 1:
                            scale = lcm(scale, piv)
            if den != 1 or scale != 1:
                m = den * scale
                out = {c: _times(v, m) for c, v in out.items()}
                hits = [(c, _times(v, den) * (scale // prow[c]), prow) for c, v, prow in hits]
        if not hits:
            return out
        get = out.get
        for c, coef, prow in hits:
            for cc, v in prow.items():
                if cc != c:
                    out[cc] = get(cc, 0) - coef * v
        # most rows lie in the span and reduce to zero: test for that before
        # building the remainder
        if p:
            for v in out.values():
                if v % p:
                    return {c: r for c, v in out.items() if (r := v % p)}
            return {}
        return {c: v for c, v in out.items() if v} if any(out.values()) else {}

    def extend(self, rows):
        """Insert every row, sparsest first (the Markowitz order; ties keep
        their input order).  The pivot rows do not depend on the order, but
        sparse rows entered first fill in less and keep the scalars small."""
        for row in sorted(rows, key=len):
            self.add(row)

    def add(self, row):
        """Insert a row; returns True when it increased the rank."""
        r = self._reduce(row)
        if not r:
            return False
        c = min(r) if self._key is None else min(r, key=self._key)
        piv = r.pop(c)
        p = self.field.char
        if p:
            if piv != 1:
                inv = pow(piv, -1, p)
                r = {cc: v * inv % p for cc, v in r.items()}
                piv = 1
        elif piv != 1:
            g = gcd(piv, *r.values())
            if piv < 0:
                g = -g
            r = {cc: v // g for cc, v in r.items()}
            piv //= g
        r[c] = piv
        holders = self._holders
        rows = self._rows
        for pc in holders.pop(c, ()):
            prow = rows[pc]
            coef = prow.pop(c, None)
            if coef is None:
                continue
            # prow * piv - coef * r: the entry at c cancels (over GF(p) the
            # pivot entry is 1 and this is prow - coef * r)
            if piv != 1:
                for cc in prow:
                    prow[cc] *= piv
            for cc in _subtract(prow, coef, r, c, p):
                holders.setdefault(cc, []).append(pc)
            if prow[pc] != 1:
                g = gcd(*prow.values())
                if g != 1:
                    for cc in prow:
                        prow[cc] //= g
        for cc in r:
            if cc != c:
                holders.setdefault(cc, []).append(c)
        rows[c] = r
        return True

    @property
    def pivots(self):
        """The RREF rows, {pivot column: row}: residues over GF(p) and
        canonical int | Fraction over QQ.  A snapshot that shares rows with
        the accumulator: read it before the next add, and do not mutate it."""
        rows = self._rows
        if self.field.char:
            return rows
        div = self.field.div
        return {c: r if (piv := r[c]) == 1 else {cc: div(v, piv) for cc, v in r.items()}
                for c, r in rows.items()}

    @property
    def rank(self):
        return len(self._rows)

    def kernel_basis(self, ncols):
        """A basis of the kernel of the rows, one sparse vector per free
        column below ncols, ascending, read off the fraction-free rows
        without dividing: the vector of free column f is its
        nullspace_from_rref column times the lcm of the pivot entries of the
        rows that hold f, so over QQ its entries are ints.  canonical_kernel
        takes it as it is.  The rows that hold f are read from the index
        of add, which may list a row twice or list a row that lost f
        again."""
        rows = self._rows
        p = self.field.char
        out = []
        for f in range(ncols):
            if f in rows:
                continue
            holders = [pc for pc in self._holders.get(f, ()) if f in rows[pc]]
            if p:
                z = {pc: -rows[pc][f] % p for pc in holders}
                z[f] = 1
            else:
                scale = lcm(*(rows[pc][pc] for pc in holders))
                z = {pc: -rows[pc][f] * (scale // rows[pc][pc]) for pc in holders}
                z[f] = scale
            out.append(z)
        return out


def _times(v, m):
    """The int v * m, for v an int or a Fraction whose denominator divides m."""
    return v * m if v.__class__ is int else v.numerator * (m // v.denominator)


def _subtract(out, coef, prow, skip, p):
    """out -= coef * prow in place, leaving out column skip; returns the
    columns at which out gained an entry.  Each stored entry is reduced mod
    p; over QQ (p = 0) every value is an int."""
    gained = []
    for cc, v in prow.items():
        if cc == skip:
            continue
        cur = out.get(cc)
        if cur is None:
            cur = -coef * v
            gained.append(cc)
        else:
            cur -= coef * v
        if p:
            cur %= p
        if cur:
            out[cc] = cur
        else:
            del out[cc]
    return gained


def rref_rows(rows, field):
    """The unique RREF of the span of rows, pivots at the lowest column
    index, as {pivot column: pivot row}.

    rows is any iterable of sparse row dicts, a generator too; it is
    materialised, and the rows enter the elimination by ascending nonzero
    count, ties in input order (RrefAccumulator.extend).  The result does
    not depend on the order of the rows.  Its entries are residues in
    [0, p), or canonical int | Fraction over QQ.
    """
    acc = RrefAccumulator(field)
    acc.extend(rows)
    return acc.pivots


def nullspace_from_rref(pivots, ncols, field):
    """Kernel basis of a reduced echelon form: one column per free column,
    ascending.

    Each basis column carries 1 at its free coordinate, so reading a kernel
    vector's coordinates off the free positions recovers its expansion.
    Returns (columns, free_positions) with columns as sparse dicts of
    scalars, like the pivot rows.  The pivots may sit in any column order
    (an RrefAccumulator with a key); the basis is the canonical one when
    they sit at the lowest index, as in rref_rows.
    """
    p = field.char
    free = [c for c in range(ncols) if c not in pivots]
    cols = [{f: 1} for f in free]
    index = {f: j for j, f in enumerate(free)}
    for pc, prow in pivots.items():
        for c, v in prow.items():
            if c != pc:
                cols[index[c]][pc] = -v % p if p else -v
    return cols, free


def canonical_kernel(vectors, field):
    """The canonical kernel basis of nullspace_from_rref(rref_rows(rows)),
    from the sparse vectors of any basis of that kernel, as (columns, free
    positions).

    The canonical column z_f is 1 at its free column f and 0 at the other
    free columns, and its other entries sit at pivot columns below f: its
    last nonzero entry is the 1 at f.  So the canonical basis is the RREF
    of the kernel with the column order reversed, with its rows listed by
    ascending pivot, and one elimination of the vectors gives it.
    """
    acc = RrefAccumulator(field, neg)
    acc.extend(vectors)
    pivots = acc.pivots
    free = sorted(pivots)
    return [pivots[f] for f in free], free


def _matrix_rows_sparse(m):
    """Sparse rows of m (RrefAccumulator reads the entries through the field)."""
    return [{j: v for j, v in enumerate(row) if v} for row in m.rows]


def rank(m):
    """Exact rank over the matrix field."""
    return len(rref_rows(_matrix_rows_sparse(m), m.field))


def solve_rows(rows, rhs, ncols, field):
    """The canonical solution {column: scalar} (free variables zero) of the
    sparse rows {row index: {column < ncols: scalar}} against the right-hand
    side {row index: scalar}, as augmented column ncols, a row missing from
    either reading as zero; None when the system is inconsistent."""
    pivots = rref_rows(({**rows.get(i, {}), ncols: rhs[i]} if i in rhs else rows[i]
                        for i in rows.keys() | rhs.keys()), field)
    if ncols in pivots:
        return None
    return {pc: prow[ncols] for pc, prow in pivots.items() if ncols in prow}


def solve(a, b):
    """One particular solution of a x = b, or None when inconsistent.

    Free variables are set to zero in the canonical echelon form.
    """
    if len(b) != a.nrows:
        raise LinAlgError("dimension mismatch: %d rows vs rhs of length %d"
                          % (a.nrows, len(b)))
    x = solve_rows(dict(enumerate(_matrix_rows_sparse(a))),
                   {i: v for i, v in enumerate(b) if v}, a.ncols, a.field)
    return None if x is None else [x.get(j, a.field.zero) for j in range(a.ncols)]
