"""Planar broken-ray (V-line) and parallel-ray tomography toolkit.

Forward transforms, their exact-transpose adjoints, filtered
backprojection and Landweber reconstruction, and a geometric engine that
predicts conjugate points, caustics and reconstruction artifacts in closed
form for validation against actual reconstructions.
"""

from .conjugate import (
    CausticCurve,
    ChainStatus,
    ConjugateChain,
    Covector,
    TangentLocus,
    Translation,
    caustic_curve,
    conjugate_chain,
    conjugate_covector,
    conjugate_point,
    is_radial,
    parabola_criterion,
    polygon_artifact_radii,
    source_derivatives,
    tangent_conjugate_locus,
)
from .errors import (
    BrokenRayError,
    CenterOutsideWindow,
    CenterSource,
    ConfigError,
    DegenerateDirection,
    DivergenceDetected,
    EmptyCaustic,
    EmptyLocus,
    GrazingIncidence,
    NoIntersection,
    SupportViolation,
    ZeroOperator,
    ZeroReference,
)
from .geometry import (
    Boundary,
    Circle,
    Ellipse,
    LineCoords,
    Parabola,
    ReflectionEvent,
    SampledCurve,
    intersect_ray,
    reflect,
    reflect_rays,
    reflection_jacobian,
)
from .phantoms import PhantomSpec, clip_to_boundary, place, render
from .reconstruct import (
    LandweberConfig,
    LandweberResult,
    artifact_localization,
    error_map,
    fbp,
    landweber,
    relative_error,
    step_size_estimate,
)
from .transforms import (
    BrokenRayOperator,
    Family,
    GridImage,
    ParallelRayOperator,
    RadonOperator,
    Sinogram,
    SinogramLayout,
    image_inner,
    image_norm,
    lambda_filter,
    radon,
    radon_adjoint,
    sino_inner,
    sino_norm,
)

__version__ = "0.1.0"
