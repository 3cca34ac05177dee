"""ordim: exact dimension theory for convex geometries.

Construct the named families, compute order / convex / fractional / Boolean
dimension, VC dimension and the standard example number exactly, verify
certificates, and machine-check the structural theorems on enumerated and
random instances.
"""

from .errors import (AxiomViolation, BudgetExceeded, CycleError, GroundMismatch,
                     InvalidRealizer, MalformedCertificate, MaxTriesExceeded,
                     NotDistinguishing, OrdimError, ParamRange,
                     TooManyExtensions)
from .order import (Poset, WidthResult, critical_pairs, downset_lattice,
                    find_standard_example, max_down_degree, poset_from_relation,
                    standard_example_number, width)
from .certificates import (BooleanRealizer, FractionalRealizer, LocalRealizer,
                           Realizer, verify_boolean_realizer,
                           verify_fractional_realizer, verify_local_realizer,
                           verify_realizer)
from .geometry import (ConvexGeometry, ConvexRealizer, SetFamily,
                       check_boolean_property, geometry_critical_pairs,
                       join_geometries, mask_to_set, set_to_mask,
                       validate_convex_geometry, vc_dimension_shattering,
                       verify_convex_realizer)
from .constructions import (boolean_algebra, enumerate_geometries, jkn,
                            linear_geometry, pkn, qn_pn, random_geometry)
from .dimensions import (DimensionReport, DistinguishingSequence, analyze,
                         binary_distinguishing, boolean_dimension_exact,
                         convex_dimension, distinguishing_to_realizer,
                         dm_dimension, fractional_dimension,
                         pkn_fractional_certificate, randomized_distinguishing,
                         realizer_to_distinguishing, verify_distinguishing)

__version__ = "0.1.0"
