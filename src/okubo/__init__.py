"""Okubo normal form systems attached to products of Gauss hypergeometric
functions: exact structural identities and desk-scale numerics.

The package constructs the Fuchsian system satisfied by a product of two
Gauss functions, gauges it into Okubo normal form, parametrizes the
accessory parameters of the general size-four Okubo system with those
local exponents, decides when the coefficient difference systems of the
local solutions at two singular points match up to a common scalar
factor, solves the resulting equations for the special accessory values,
and verifies that those values realize the hypergeometric product.  An
appendix-grade reduction produces the size-three Dotsenko-Fateev system
by an Euler transform, with an integral solution checked numerically.

Import each name from its module; this package re-exports nothing.  The
exact modules load no numpy: `series` and `verify` do, and the quadrature
of `dotsenko_fateev` loads numpy and scipy when first called.
"""

__version__ = "0.1.0"
