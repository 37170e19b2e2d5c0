"""trimoduli: similarity classes of lattice triangles.

Exact census of triangle shapes realized on integer grids, closed-form
measures on the space of triangle shapes, Dirichlet approximation by the
smallest exactly verified multiplier, lattice approximants of arbitrary
shapes (the smallest base along the ray of the unit-base placement), and
the Monte Carlo baselines the census is compared against.
"""

from .errors import GuardError, PrecisionError
from .parallel import ENV_THREADS, map_ordered, worker_count
from .lattice import (
    MAX_COORD,
    LatticePoint,
    LatticeTriangle,
    SimilarityKey,
    cross,
    reduced_triple,
    similarity_key,
    strict_triangle_test,
    triangle,
)
from .moduli import (
    ModuliRegion,
    ShapeTriple,
    WeightedShapeSet,
    measure_moduli,
    measure_teich,
    obtuse_region_measure,
    right_locus,
    shape_of,
    uniform_bin_masses,
    uniform_target,
)
from .enumeration import (
    MAX_N,
    collinear_triple_count,
    enumerate_naive,
    enumerate_weighted,
)
from .diophantine import (
    approximate_shape,
    dirichlet_1d,
    dirichlet_2d,
    star_discrepancy,
    weyl_sequence,
)
from .rng import BLOCK_SAMPLES, block_generator, splitmix64, stream_key
from .randgeom import (
    Histogram2D,
    McEstimate,
    langford_obtuse_probability,
    mean_pair_distance,
    obtuse_probability,
    shape_histogram,
    unit_square_mean_distance,
)
from .analysis import (
    EquidistReport,
    ObtuseCurvePoint,
    compare_to_uniform,
    curve_point_from_set,
    equidist_report,
    obtuse_curve,
    obtuse_point,
    orbit_bin_masses,
    orbit_projections,
    tv_distance,
)
from .serialize import (
    export_approximant,
    export_curve,
    export_estimate,
    export_histogram,
    export_report,
    export_weighted_set,
    read_weighted_set,
    write_text,
)
from .svgplot import MAX_PLOT_POINTS, census_points, plot_curve, plot_shapes

__version__ = "0.1.0"
