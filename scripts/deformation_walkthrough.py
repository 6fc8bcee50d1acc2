#!/usr/bin/env python3
"""Walk the order-2 deformation of the meson plane end to end.

Builds mu_t = mu + mu_2 t^2 on the 2-dimensional meson system with the
basis-swap action, then runs the whole pipeline: validation, order
equations, infinitesimal, obstruction, extension, equivalence against the
trivial deformation, and gauge reduction.
"""

from ltsdeform.cohomology import apply_coboundary
from ltsdeform.deformation import (check_deformation_equations, check_equivalence,
                                   extend, infinitesimal, make_deformation,
                                   obstruction, pad_deformation, trivialize)
from ltsdeform.groups import make_group_action
from ltsdeform.linalg import Matrix
from ltsdeform.lts import StructureTensor, meson, self_module


def main():
    t2 = meson(2)
    swap = make_group_action(t2, [("0", Matrix.identity(2)),
                                  ("1", Matrix([[0, 1], [1, 0]]))])

    def mu2(i, j, p):
        vec = [0, 0]
        if j == p:
            vec[j] += 1
        if i == p:
            vec[i] -= 1
        return vec

    defo = make_deformation(t2, swap, [
        t2.mu,
        StructureTensor.zero((2, 2, 2), 2),
        StructureTensor.from_map(mu2, (2, 2, 2), 2),
    ])
    print("accepted as an order-%d candidate" % defo.order)

    report = check_deformation_equations(pad_deformation(defo, 4))
    print("order equations through t^4:",
          " ".join("r=%d:%s" % (c.order, "ok" if c.passed else "FAIL")
                   for c in report.orders))

    n, inf = infinitesimal(defo)
    print("first nonzero term: order %d; coboundary of it vanishes: %s"
          % (n, apply_coboundary(self_module(t2), inf).is_zero()))

    ob = obstruction(defo)
    print("obstruction: zero=%s cocycle=%s extendable=%s"
          % (ob.cochain.is_zero(), ob.is_cocycle, ob.preimage is not None))

    ext = extend(defo)
    print("extended to order %d (new term zero: %s)"
          % (ext.order, ext.terms[-1].is_zero()))

    trivial = make_deformation(t2, swap, [t2.mu])
    res = check_equivalence(trivial, defo, 2)
    print("equivalent to the trivial deformation:", res.equivalent)
    if res.equivalent:
        for i, m in enumerate(res.isomorphism.terms):
            print("  psi_%d = %s" % (i, [[t2.field.format(v) for v in row]
                                         for row in m.rows]))

    reduced, log = trivialize(defo, 4)
    for step in log:
        print("trivialize:", step["detail"])
    print("all reduced terms vanish:",
          all(reduced.terms[i].is_zero() for i in range(1, reduced.order + 1)))


if __name__ == "__main__":
    main()
