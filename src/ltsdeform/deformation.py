"""Truncated equivariant formal deformations of a Lie triple system.

A deformation of order n is a coefficient list mu_0, ..., mu_n of
equivariant trilinear maps (mu_0 the original bracket) read modulo
t^(n+1): each term must satisfy the degree-3 cochain conditions, and the
order-r compatibility equations

    sum_{i+j=r} mu_i(a, b, mu_j(c, d, e))
      = sum_{i+j=r} { mu_i(mu_j(a,b,c), d, e) + mu_i(c, mu_j(a,b,d), e)
                      + mu_i(c, d, mu_j(a,b,e)) }

must hold for 0 <= r <= n (r = 0 is the fundamental identity itself).
Their residuals are the coefficients 0..n of one tensorops.nested_sum over
the term series, and the obstruction cochain is coefficient n+1 of the
same pass taken through n+1.  Every computation here assumes the
equations: obstruction, extend, check_equivalence and trivialize (the last
two through max(n, cap)) raise DeformationError at the first failing
order; only check_deformation_equations reports failures.
The module covers the whole deformation pipeline: validation,
infinitesimals, the degree-5 obstruction cochain, order-by-order
extension, gauge transformations by truncated formal isomorphisms,
equivalence testing, trivialization, and the rigidity certificate.

Terms and cochains are sparse StructureTensors; a term list is validated
by one cochain_violations and one equivariance_failure call.  Gauge
transformations, equivalence and trivialization read a deformation modulo
t^(cap+1): its terms through the cap, zero-padded above its own order.
Gauge composition is one series transform (tensorops.transform_series),
and check_equivalence reads its order-k cochains off the same transform,
whose last slot pass forms coefficient k alone.
All linear solves for gauge terms and extensions are restricted to the
invariant subcomplex, with the canonical echelon solution (free variables
zero), so results are deterministic.  Each call solves on one
cohomology.CochainComplex, which builds its bases and coboundary once;
check_equivalence builds the plain complex for its diagnostic only when a
step is obstructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .caps import DEFAULT_CAPS, CapExceeded
from .cohomology import CochainComplex, cochain_violations, cohomology, is_cocycle
from .groups import equivariance_failure
from .linalg import Matrix
from .lts import StructureTensor, fundamental_terms, self_module
from .tensorops import nested_sum, transform_series, value_vectors


class DeformationError(ValueError):
    """Invalid deformation data (wrong leading term, bad cochain, not equivariant)."""


@dataclass(frozen=True)
class TruncatedDeformation:
    system: object
    action: object
    terms: tuple

    @property
    def order(self):
        return len(self.terms) - 1

    def term(self, i):
        """mu_i, with zero padding above the stated order."""
        if i <= self.order:
            return self.terms[i]
        d = self.system.dim
        return StructureTensor.zero((d, d, d), d, self.system.field)


@dataclass(frozen=True)
class FormalIsomorphism:
    """Truncated gauge transformation psi_0 = id, psi_1, ..., psi_N."""

    terms: tuple

    @property
    def order(self):
        return len(self.terms) - 1

    def term(self, i):
        if i <= self.order:
            return self.terms[i]
        n = self.terms[0].nrows
        return Matrix.zero(n, n, self.terms[0].field)

    def inverse_terms(self, through, head=()):
        """Coefficients of the inverse series: phi_0 = id,
        phi_k = -sum_{i=1..k} psi_i phi_{k-i}, continued from head, its
        first coefficients, when given."""
        phis = list(head) or [self.terms[0]]
        for k in range(len(phis), through + 1):
            acc = Matrix.zero(self.terms[0].nrows, self.terms[0].nrows,
                              self.terms[0].field)
            for i in range(1, k + 1):
                psi = self.term(i)
                if not psi.is_zero():
                    acc = acc + psi * phis[k - i]
            phis.append(acc.scale(-self.terms[0].field.one))
        return phis


@dataclass(frozen=True)
class OrderCheck:
    order: int
    passed: bool
    witness: tuple = None
    residual: tuple = None


@dataclass(frozen=True)
class DeformationReport:
    passed: bool
    orders: tuple


@dataclass(frozen=True)
class ObstructionResult:
    cochain: StructureTensor
    is_cocycle: bool  # None when the degree-7 check exceeded the caps
    preimage: StructureTensor


@dataclass(frozen=True)
class EquivalenceResult:
    isomorphism: FormalIsomorphism
    obstructed_order: int = None
    witness: StructureTensor = None
    plain_solvable: bool = None  # diagnostic: would the step solve without equivariance?

    @property
    def equivalent(self):
        return self.isomorphism is not None


@dataclass(frozen=True)
class RigidityReport:
    dim_h3_equivariant: int
    rigid: bool

    @property
    def conclusion(self):
        if self.rigid:
            return "rigid (sufficient condition met: equivariant H^3 = 0)"
        return ("inconclusive: equivariant H^3 has dimension %d "
                "(criterion certifies rigidity only when it vanishes)"
                % self.dim_h3_equivariant)


# ---------------------------------------------------------------------------
# construction and validation


def make_deformation(system, action, terms):
    """Validate the term list as an order-(len-1) deformation candidate.

    Checks the leading term and the shape of every term, then the degree-3
    cochain conditions of terms 1..n in one cochain_violations call on
    their stack, whose first slot is the order (the conditions touch only
    the last three slots), and equivariance in one equivariance_failure
    call.  The lowest failing term is reported, its cochain conditions
    before its equivariance.  The order-r compatibility equations are
    checked separately (check_deformation_equations) so that invalid
    candidates can still be constructed and inspected.
    """
    terms = tuple(terms)
    if not terms:
        raise DeformationError("a deformation needs at least the order-0 term")
    if terms[0] != system.mu:
        raise DeformationError("term 0 must be the system's own bracket")
    d = system.dim
    for i, t in enumerate(terms):
        if t.dims != (d, d, d) or t.dim_out != d:
            raise DeformationError("term %d has shape %r, expected the bracket shape"
                                   % (i, (t.dims, t.dim_out)))
    stack = StructureTensor((len(terms) - 1, d, d, d), d, {
        i * d ** 4 + k: v for i, t in enumerate(terms[1:]) for k, v in t.entries.items()},
        system.field)
    bad = next(iter(cochain_violations(stack).violations), None)
    failures = equivariance_failure(action, terms)
    moved = next((i for i, f in enumerate(failures) if f is not None), len(terms))
    if bad is not None and bad.witness[0] < moved:
        raise DeformationError("term %d violates the degree-3 cochain conditions: %s at %r"
                               % (bad.witness[0] + 1, bad.axiom, bad.witness[1:]))
    if moved < len(terms):
        g, triple = failures[moved]
        raise DeformationError("term %d is not equivariant under element %r at basis "
                               "triple (%d, %d, %d)" % ((moved, action.labels[g]) + triple))
    return TruncatedDeformation(system, action, terms)


def pad_deformation(defo, order):
    """Zero-pad the term list up to the requested order (no equation check)."""
    if order < defo.order:
        raise DeformationError("cannot pad below the current order")
    return replace(defo, terms=tuple(defo.term(i) for i in range(order + 1)))


def _modulo(defo, cap):
    """defo read modulo t^(cap+1): mu_0, ..., mu_cap, truncated above the
    cap and zero-padded below it.  Its order equations must hold through
    max(order, cap), the terms read as zero above the order."""
    if cap < 0:
        raise DeformationError("the cap must be a non-negative order; got %d" % cap)
    _require_equations(defo.system, _residuals(defo, max(defo.order, cap)))
    return replace(defo, terms=tuple(defo.term(i) for i in range(cap + 1)))


def _residuals(defo, through):
    """Coefficients 0..through of the order equations, in one nested_sum pass."""
    d = defo.system.dim
    return nested_sum(fundamental_terms(defo.terms, defo.terms), (d,) * 6, through)


def _order_checks(system, residuals):
    """One OrderCheck per residual coefficient, witnessed by its first nonzero vector."""
    d = system.dim
    for r, res in enumerate(residuals):
        witness, residual = next(value_vectors(res, (d,) * 6, system.field.zero), (None, None))
        yield OrderCheck(r, witness is None, witness, residual)


def _require_equations(system, residuals):
    """Raise DeformationError at the first nonzero residual coefficient."""
    for c in _order_checks(system, residuals):
        if not c.passed:
            raise DeformationError("deformation fails its order-%d equation at %r"
                                   % (c.order, c.witness))


def check_deformation_equations(defo):
    """Residuals of the order-r equations for every 0 <= r <= order: the
    coefficients of one nested_sum over the term series."""
    checks = tuple(_order_checks(defo.system, _residuals(defo, defo.order)))
    return DeformationReport(all(c.passed for c in checks), checks)


def infinitesimal(defo):
    """First index n >= 1 with mu_n nonzero, as (n, mu_n)."""
    for i in range(1, defo.order + 1):
        if not defo.terms[i].is_zero():
            return i, defo.terms[i]
    return None


# ---------------------------------------------------------------------------
# obstruction and extension


def obstruction(defo, caps=DEFAULT_CAPS):
    """The degree-5 obstruction cochain of an order-n deformation.

    F(a,b,c,d,e) = sum_{i+j=n+1; i,j>0} mu_i(a,b,mu_j(c,d,e))
                   - mu_i(mu_j(a,b,c),d,e) - mu_i(c,mu_j(a,b,d),e)
                   - mu_i(c,d,mu_j(a,b,e)),

    coefficient n+1 of the order equations of the term series: mu_(n+1)
    reads as zero, so the pairs (0, n+1) and (n+1, 0) drop out.  Its
    coefficients 0..n must vanish (DeformationError otherwise).

    Its cocycle property is checked exactly when the degree-7 ambient fits
    the caps (is_cocycle is None otherwise).  The preimage is the canonical
    equivariant solution of coboundary(x) = F when one exists; finding it
    checks that F lies in C_G^5 (SpanError otherwise).
    """
    system = defo.system
    d, n = system.dim, defo.order
    residuals = _residuals(defo, n + 1)
    _require_equations(system, residuals[:n + 1])
    cochain = StructureTensor((d,) * 5, d, residuals[n + 1], system.field)
    cochains = CochainComplex(self_module(system), defo.action, caps=caps)
    try:
        cocycle_flag = is_cocycle(cochains.module, cochain, caps)
    except CapExceeded:
        cocycle_flag = None
    return ObstructionResult(cochain, cocycle_flag, cochains.preimage(cochain))


def extend(defo, caps=DEFAULT_CAPS):
    """Order-(n+1) extension when the obstruction class vanishes, else None."""
    ob = obstruction(defo, caps)
    if ob.preimage is None:
        return None
    extended = make_deformation(defo.system, defo.action, defo.terms + (ob.preimage,))
    report = check_deformation_equations(extended)
    if not report.passed:
        raise RuntimeError("extension by the obstruction preimage failed the "
                           "order equations; this must not happen")
    return extended


# ---------------------------------------------------------------------------
# gauge transformations


def make_formal_isomorphism(action, matrices):
    """Validate psi_0 = id and equivariance of every coefficient, read as a
    degree-1 cochain: a fixed point of the action commutes with every element."""
    mats = tuple(matrices)
    if not mats:
        raise DeformationError("a formal isomorphism needs at least psi_0")
    d, field = action.system.dim, action.system.field
    if mats[0] != Matrix.identity(d, field):
        raise DeformationError("psi_0 must be the identity")
    for i, m in enumerate(mats[1:], 1):
        if m.nrows != d or m.ncols != d:
            raise DeformationError("psi_%d has shape %dx%d, expected %dx%d"
                                   % (i, m.nrows, m.ncols, d, d))
    psis = [StructureTensor.from_map(m.column, (d,), d, field) for m in mats[1:]]
    for i, failure in enumerate(equivariance_failure(action, psis), 1):
        if failure is not None:
            raise DeformationError("psi_%d does not commute with element %r"
                                   % (i, action.labels[failure[0]]))
    return FormalIsomorphism(mats)


def _gauge(defo, iso, phis, order, low=0):
    """Terms 0..order of Psi o mu_t o (Psi^{-1})^(x3): one series transform
    with slots (Phi, Phi, Phi, Psi^T), phis the inverse series through the
    order; terms above it are dropped and missing ones read as zero.  Terms
    below low are not formed and come back zero."""
    d = defo.system.dim
    phis = [m.rows for m in phis]
    psis_t = [list(zip(*m.rows)) for m in iso.terms]
    series = transform_series([t.entries for t in defo.terms],
                              [phis, phis, phis, psis_t], order, low)
    return [StructureTensor.from_entries(e, (d, d, d), d, defo.system.field) for e in series]


def apply_isomorphism(defo, iso, cap_order):
    """Gauge transform: Psi o mu_t o (Psi^{-1})^(x3), read modulo
    t^(cap_order+1), so the result always has order cap_order (_gauge).
    Equivariance of every new term is preserved and revalidated."""
    return make_deformation(defo.system, defo.action,
                            _gauge(defo, iso, iso.inverse_terms(cap_order), cap_order))


def check_equivalence(defo_a, defo_b, cap_order, caps=DEFAULT_CAPS):
    """Order-by-order search for an equivariant formal isomorphism from
    defo_a to defo_b through cap_order.

    At order k the unknown psi_k enters the coefficient equation linearly
    through its coboundary; each step is a canonical equivariant solve
    against g_k = [t^k](a gauged by psi_0..psi_(k-1)) - b_k (_gauge, which
    forms only coefficient k in its last slot pass).
    Returns the isomorphism, or the first obstructed order with the
    offending equivariant 3-cocycle as witness (plus a diagnostic flag for
    whether the step would have been solvable without equivariance).
    Reads a, then b, modulo t^(cap_order+1) (_modulo) before comparing them.
    Over GF(p) with p <= cap_order an obstruction is no proof of
    inequivalence: only the canonical psi_k is tried, and exp(tD), which
    over QQ absorbs a difference by a derivation D, needs D^k / k! (a
    gauge-trivial meson(3) deformation over GF(2) reads obstructed).
    """
    defo_a, defo_b = _modulo(defo_a, cap_order), _modulo(defo_b, cap_order)
    if defo_a.system is not defo_b.system and defo_a.system != defo_b.system:
        raise DeformationError("deformations live on different systems")
    if defo_a.action is not defo_b.action and defo_a.action != defo_b.action:
        raise DeformationError("deformations carry different actions")
    system, action, field = defo_a.system, defo_a.action, defo_a.system.field
    cochains = CochainComplex(self_module(system), action, caps=caps)
    psis, phis = [Matrix.identity(system.dim, field)], []
    for k in range(1, cap_order + 1):
        # g_k is [t^k] of Psi_{<k} mu^a - mu^b Psi_{<k}^(x3) = (mu' - mu^b)
        # Psi_{<k}^(x3), mu' = a gauged by Psi_{<k}, which agrees with b below
        # t^k; psi_(k-1) changes the inverse series from phi_(k-1) on only
        iso = FormalIsomorphism(tuple(psis))
        phis = iso.inverse_terms(k, phis[:k - 1])
        g_k = _gauge(defo_a, iso, phis, k, k)[k] - defo_b.terms[k]
        x = cochains.preimage(g_k)
        if x is None:
            plain = CochainComplex(cochains.module, caps=caps).preimage(g_k) is not None
            return EquivalenceResult(None, obstructed_order=k, witness=g_k,
                                     plain_solvable=plain)
        psis.append(_cochain1_to_matrix(x, field))
    iso = make_formal_isomorphism(action, psis)
    if apply_isomorphism(defo_a, iso, cap_order).terms != defo_b.terms:
        raise RuntimeError("order-by-order solution failed the round trip; "
                           "this must not happen")
    return EquivalenceResult(iso)


def _cochain1_to_matrix(c, field):
    (d,), m = c.dims, c.dim_out
    rows = [[c.entries.get(i * m + l, field.zero) for i in range(d)] for l in range(m)]
    return Matrix(rows, field, copy=False)


def trivialize(defo, cap_order, caps=DEFAULT_CAPS):
    """Strip coboundary infinitesimals by gauge steps Psi = id + psi t^n.

    Stops when every term through cap_order vanishes (trivial deformation)
    or when the current infinitesimal's class is nonzero (the gauge-reduced
    normal form).  Returns the reduced deformation and a step log.  Over
    GF(p) with p <= cap_order "reduced" is no proof of nontriviality: only
    the canonical psi is tried (see check_equivalence).
    """
    cur = _modulo(defo, cap_order)
    system = defo.system
    action = defo.action
    field = system.field
    cochains = CochainComplex(self_module(system), action, caps=caps)
    log = []
    while True:
        inf = infinitesimal(cur)
        if inf is None:
            log.append({"status": "trivial",
                        "detail": "all terms through order %d vanish" % cur.order})
            return cur, log
        n, term = inf
        x = cochains.preimage(term)
        if x is None:
            log.append({"status": "reduced",
                        "detail": "order-%d infinitesimal has nonzero equivariant "
                                  "cohomology class" % n,
                        "order": n})
            return cur, log
        psi = _cochain1_to_matrix(x, field)
        mats = [Matrix.identity(system.dim, field)]
        mats.extend(Matrix.zero(system.dim, system.dim, field) for _ in range(n - 1))
        mats.append(psi)
        iso = make_formal_isomorphism(action, mats)
        cur = apply_isomorphism(cur, iso, cap_order)
        log.append({"status": "step", "order": n,
                    "detail": "removed order-%d coboundary infinitesimal" % n})


def rigidity_certificate(system, action, caps=DEFAULT_CAPS):
    """Sufficient rigidity test: equivariant H^3 = 0 certifies rigidity;
    anything else is reported as inconclusive, never as non-rigidity."""
    module = self_module(system)
    report = cohomology(module, 3, action, caps=caps, want_representatives=False)
    return RigidityReport(report.dim_h, report.dim_h == 0)
