"""Reference implementations kept as test oracles.

``src/`` has exactly one DAGSolve, one LP model builder, one backward
slicer, one replication loop, one rounding pass, one plan checker, one
occupancy walk and one reservoir allocator.
The modules here are the straightforward versions they replaced, kept
verbatim so the property and identity suites can check the production
code against an independent derivation:

* :mod:`oracles.dagsolve` — DAGSolve's two passes in
  :class:`fractions.Fraction` arithmetic (paper Figure 4, line by line);
* :mod:`oracles.lpmodel` — the LP model built from scratch, one
  constraint row at a time (paper Section 3.2);
* :mod:`oracles.slicing` — backward slicing that rescans the program on
  every query (regeneration's code selection, paper Section 1);
* :mod:`oracles.replication` — the static-replication loop with every
  verdict taken in Fraction arithmetic over :mod:`oracles.dagsolve`
  (paper Section 3.4.2);
* :mod:`oracles.rounding` — RVol -> IVol rounding, its deficit repair and
  the ratio-error maximum in Fraction arithmetic (paper Section 4.2);
* :mod:`oracles.certify_plan` — the certifier's plan checker and demand
  model comparing Fraction volumes directly;
* :mod:`oracles.lp_linprog` — the LP solve through
  ``scipy.optimize.linprog``'s input handling (paper Section 3.2);
* :mod:`oracles.structure` — the structural check, DAGSolve's
  backward-pass rows and the LP structure table, each walked over the
  whole DAG on every call;
* :mod:`oracles.fluids` — the machine's mixture model with every
  component kept as its own Fraction;
* :mod:`oracles.walk` — the abstract occupancy walk with one method per
  step, each operand classified and each access recorded through a
  helper (paper Sections 2.1 and 3.2);
* :mod:`oracles.regalloc` — the linear-scan reservoir allocator that
  rescans every live reservoir at each DAG node (paper Section 2.1).
"""
