"""Ordered semirings, quasirings and skew idempotent functionals.

A desk-scale computer-algebra toolkit: finite structures given by
operation tables, ordinals in Cantor normal form, shifted product
constructions, function spaces, idempotent functionals with their monad
structure, and convolution algebras over groupoid actions.  Every stated
law has an exhaustive or budgeted checker that reports concrete,
re-evaluable counterexample witnesses.
"""

__version__ = "0.1.0"
