"""centrex: central extensions of finite groups, and numerical certification
of the loop-group curvature/connection pair that encodes one.

Two halves:

* ``groups`` / ``cochains`` / ``cohomology`` / ``extensions`` classify
  central extensions of a small finite group G by Z/n through degree-2
  cocycles, with an exhaustive oracle cross-checking the linear algebra.
* ``su`` / ``loops`` / ``forms`` / ``periods`` evaluate the left-invariant
  2-form R on the loop group of SU(n) and the 1-form alpha on its square,
  and certify the defining identities (delta R = d alpha, delta alpha = 0,
  d R = 0, left invariance, integral periods) numerically.

``verify`` bundles the numerical checks into reports; ``cli`` exposes
everything as a command line tool.
"""

__version__ = "0.1.0"

from .groups import (FiniteGroup, GroupFingerprint, catalog, cyclic,
                     dihedral, direct_product, fingerprint, klein_four,
                     load_group, parse_group_table, quaternion8, symmetric3)
from .cochains import (Cochain, delta, face_map, load_cochain, parse_cochain,
                       violating_triple)
from .cohomology import (SecondCohomology, cohomologous,
                         exhaustive_second_cohomology, second_cohomology)
from .extensions import (ExtensionGroup, build_extension,
                         extension_fingerprint)
from .errors import CapacityError, CocycleError
from .su import project_algebra
from .loops import (DiscreteLoop, LoopTangent, circle_integral,
                    constant_loop, random_smooth_loop, random_smooth_tangent)
from .forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                    delta_form_alpha, eval_R, eval_alpha, face_pushforward,
                    left_invariance_check)
from .periods import SphereFamily, sphere_period
from .verify import run_gamma_battery, run_period_checks

__all__ = [name for name in dir() if not name.startswith("_")]
