"""Exact computations on flower and cactus-flower moduli: projective-line
equation checking, planar-forest cube complexes, cactus-family groups, and
root-system permutahedra."""

from .combinatorics import (
    AffinePermutation,
    CyclicInterval,
    ExtAffinePermutation,
    Permutation,
    SetPartition,
    affine_decompose,
    affine_interval_reversal,
    ext_affine_to_semidirect,
    interval_reversal,
    is_translation,
    refines,
)
from .forests import (
    BushyForest,
    PlanarForest,
    PlanarForestWithZeros,
    collapse,
    enumerate_planar_forests,
    flip,
    meet,
    total_order,
    zeros_to_bushy,
    zeros_to_planar,
)
from .projective import (
    MuTuple,
    NuTuple,
    ProjPoint,
    QTuple,
    VarietySpec,
    check_membership,
    classify_strata,
    collapse_to_LM,
    cross_ratios,
    dm_to_q_identification,
    eps_family_delta,
    extend_nu,
    involution_sigma,
    losev_manin_iso,
    open_cover_membership,
    orbit_map,
)
from .cubecomplexes import (
    CubeComplex,
    build_complex,
    check_gromov_flag,
    check_local_isometry,
    cubical_subdivision,
    extract_presentation,
    presentations_match,
    quotient_map,
)
from .groups import (
    GroupHom,
    Presentation,
    hom,
    make_presentation,
    pure_generator,
    semidirect_action,
    verify_hom,
)
from .realgeometry import (
    CubePoint,
    StarPoint,
    affine_cactus_path,
    b_map,
    chart_H,
    chart_b,
    gamma,
    reparameterize,
    star_equivalence_class,
    star_related,
    theta,
    theta_star,
    tree_of_configuration,
)
from .rootsystems import (
    FaceDatum,
    RootSystem,
    SimpleSystem,
    build_root_system,
    face_center,
    permutahedron_membership,
    star_membership,
    theta_root,
    verify_face_center,
    xi,
)

__version__ = "0.1.0"
