"""flatconic: ellipse/strip cell complexes on translation surfaces.

A translation surface is described by glued polygons (`surface`).  Around a
base point one develops a radius-R window of cone points (`develop`), finds
the rigid immersed ellipses and strips through at least three of them
(`rigid_conics`), and assembles the polygonal two-cells they bound into a
windowed cell complex (`build_complex`).  Affine maps between two such
windows can be certified cell-by-cell (`matching_from_affine`,
`reconstruct`, `discover_affine`), and a hyperbolic tessellation of the
window is drawn (`tessellate`, `render_svg`) at the exact h-points of the
rigid conics (`h_point`). Veech-group membership (`veech_check`) needs no
window: g is a member iff the Delaunay decompositions of g S and S differ by
a translation (`flatconic.delaunay`).  The package runs on the standard
library alone; the float layer of the ellipse lemma needs numpy and is
imported from `flatconic.lemma`.

Inside the complex every cone point is its int lattice point, the position
times the surface's scale (`SurfaceDesc.scale`): boundaries, triples,
1-cells, window keys, matchings and bijections. `to_lattice` and
`to_position` convert between a position and its lattice point; only
output and error messages go back to positions.
"""

from .quadform import (
    QForm3,
    canonical_scale,
    forms_vanishing_on,
    lift,
    signature,
    signature_restriction,
    transform_by_affine,
)
from .subconic import (
    DegenerateConfiguration,
    SubconicKind,
    classify,
    conic_through_five,
    contains,
    strip_direction,
    subconic,
)
from .surface import (
    Chart,
    SurfaceDesc,
    SurfaceError,
    default_base,
    develop,
    dist2,
    locate,
    parse_surface,
    rebase,
    surface_to_json,
    to_lattice,
    to_position,
)
from .models import l_shape, square_torus, two_marked_torus
from .cellcomplex import (
    CellComplexWindow,
    CellMatching,
    NotRealizable,
    RigidConic,
    TwoCell,
    WindowTooSmall,
    build_complex,
    complex_to_json,
    default_seed,
    follows,
    frontier_bijection,
    link,
    matching_from_affine,
    rigid_conics,
    two_cell,
)
from .geom import HPoint, INFINITY, class_key, h_point, mobius
from .veech import (
    AffineCandidate,
    Tessellation,
    VeechVerdict,
    discover_affine,
    psi_of_quadruple,
    reconstruct,
    tessellate,
    veech_check,
)
from .render import render_svg

__version__ = "0.1.0"
