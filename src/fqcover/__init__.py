"""fqcover: exact harmonic analysis and coverage experiments over finite fields.

The library builds fields GF(p^n) from tables (q x q tables up to
`gf.MUL_TABLE_MAX_Q` elements, exp/log and Zech logarithm tables above),
runs the Fourier transform on F_q^d, counts dot-product incidences
exactly, and checks a family of coverage statements for sum-of-product
sets, all at desk scale with integer arithmetic wherever a theorem is
being tested.
"""

__version__ = "0.1.0"

# argparse words its messages through gettext, which imports locale on the
# first one.  Every CLI run builds a parser, so locale is loaded with the
# package, not inside the run.
import locale  # noqa: F401

from .gf import Field, make_field  # noqa: F401
from .fourier import (  # noqa: F401
    dot,
    fourier_forward,
    fourier_forward_direct,
    fourier_invert,
    plancherel_check,
)
from .incidence import (  # noqa: F401
    PointSet,
    difference_counts,
    hyperplane_sum,
    nu,
    nu_bruteforce,
    nu_spectral,
)
from .covering import (  # noqa: F401
    bilinear_cover,
    d_for_epsilon,
    dot_product_set,
    iterated_sumset,
    point_cover_threshold,
    positive_proportion_check,
    product_set,
    scalar_cover_threshold,
    sumset_of_products,
)
