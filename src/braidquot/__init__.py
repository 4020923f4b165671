"""Toolkit for the smallest nonabelian quotients of surface braid groups.

Modules:

- :mod:`braidquot.fingroup` -- dense finite-group engine (Cayley tables).
- :mod:`braidquot.jn2` -- just-2-step-nilpotent p-groups and their
  classification into the two standard models per class.
- :mod:`braidquot.braid` -- surface braid presentations, reduced relations,
  witness search and the minimal-quotient sweep.
- :mod:`braidquot.oracle` -- independent brute-force cross-checks.
- :mod:`braidquot.verify` -- the paper's verification matrix.
- :mod:`braidquot.errors` -- the error types and the search ``Budget``.
- :mod:`braidquot.cli` -- command-line front end.
"""
