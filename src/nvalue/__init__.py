"""Exact computer algebra for the n-valued group multiplication on C.

Builds the multiplication polynomials p_n(z; x, y), expresses them in the
elementary-symmetric basis, computes their Newton polytopes, checks the
group axioms numerically, and scans the coefficient table (the paper's
Proposition, prime-power divisibility, non-vanishing at even n).

Each name lives in its defining module (``from nvalue.construct import
build_pn``).  The package declares no runtime dependency, and no command
loads numpy.  Only ``mvgroup.pn_roots``, which runs ``np.roots`` over the
coefficients ``Polynomial.eval_complex`` gives and is a cross-check
reference that no command calls, imports it, inside the call; it needs
numpy installed.
"""
