"""The 50/50 splitter's conjugation, exact: a quarter turn of the adjoint action.

For a generator g and an operator x,

    conjugate(g, x) = e^{i pi/2 g} x e^{-i pi/2 g} = exp(i pi/2 ad_g)(x),
    ad_g(x) = [g, x],

is U x U^-1 for U = e^{i pi/2 g}, the 50/50 splitter when g = J_BS; the
inverse turn is conjugate(-g, x).  When ad_g^3 x = ad_g x, ad_g is
diagonalizable on the orbit of x with eigenvalues in {0, 1, -1}, where
e^{i pi/2 t} takes the values 1, i and -i.  The interpolating polynomial
1 + i t - t^2 then gives

    conjugate(g, x) = x + i [g, x] - [g, [g, x]],

two exact commutators with rational weights.  A generator whose ad_g has
other eigenvalues on that orbit (J_a on K_OM's has +-1/2, whose quarter
turn carries sqrt(2) weights) is rejected rather than approximated;
conjugation at a general angle is the test suite's float reference.
"""

from __future__ import annotations

from .algebra import QuadOp, commutator
from .rational import I


def conjugate(g: QuadOp, x: QuadOp) -> QuadOp:
    """e^{i pi/2 g} x e^{-i pi/2 g} = x + i[g, x] - [g, [g, x]], exactly.

    Raises ``ValueError`` unless ad_g^3 x = ad_g x.
    """
    ad_x = commutator(g, x)
    ad2_x = commutator(g, ad_x)
    if commutator(g, ad2_x) != ad_x:
        raise ValueError("ad_g^3 x != ad_g x: the quarter turn of g is not rational on x")
    return x + ad_x * I - ad2_x
