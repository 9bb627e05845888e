"""Reference implementations kept as test oracles.

``src/`` has exactly one DAGSolve and one LP model builder.  The modules
here are the straightforward versions they replaced, kept verbatim so the
property and identity suites can check the production code against an
independent derivation:

* :mod:`oracles.dagsolve` — DAGSolve's two passes in
  :class:`fractions.Fraction` arithmetic (paper Figure 4, line by line);
* :mod:`oracles.lpmodel` — the LP model built from scratch, one
  constraint row at a time (paper Section 3.2).
"""
