"""Exact verification toolkit for a one-parameter family of 4x4 R-matrices,
their RTT algebras, the modified braid equation, the associated
noncommutative planes, and the contraction limit linking two of the
deformations."""

from .catalog import (DEFORMATIONS, build_M, build_r, build_rhat, deformation,
                      hecke_X, kprime, projectors, triangular_K)
from .contraction import (contract_group_relations, contract_matrix,
                          contract_plane, frame)
from .identities import (affine_decomposition, baxterization_check,
                         braid_divisibility, braid_residual, mbe_factor,
                         mbe_r_form, mbe_residual, s_shift_check)
from .ncalgebra import (NCPoly, RewriteSystem, build_group_system,
                        change_of_basis, critical_pairs, diamond_check,
                        normal_order, termination_order)
from .plane import (build_plane_system, build_pure_system,
                    phi_commutators, phi_nilpotent, phi_poly,
                    projector_consistency, pure_sector_consistency)
from .pmatrix import (ParamMatrix, embed12, embed23, flip21, inverse, kron,
                      nullspace, perm_operator, rank)
from .rtt import assemble, rtt_residual, solve_family
from .scalars import ONE, ZERO, RatFunc, const, limit_u0, substitute, sym

__all__ = [
    "DEFORMATIONS", "build_M", "build_r", "build_rhat", "deformation",
    "hecke_X", "kprime", "projectors", "triangular_K",
    "contract_group_relations", "contract_matrix", "contract_plane", "frame",
    "affine_decomposition", "baxterization_check", "braid_divisibility",
    "braid_residual", "mbe_factor", "mbe_r_form", "mbe_residual", "s_shift_check",
    "NCPoly", "RewriteSystem", "build_group_system", "change_of_basis",
    "critical_pairs", "diamond_check", "normal_order", "termination_order",
    "build_plane_system", "build_pure_system", "phi_commutators",
    "phi_nilpotent", "phi_poly", "projector_consistency",
    "pure_sector_consistency",
    "ParamMatrix", "embed12", "embed23", "flip21", "inverse", "kron",
    "nullspace", "perm_operator", "rank",
    "assemble", "rtt_residual", "solve_family",
    "ONE", "ZERO", "RatFunc", "const", "limit_u0", "substitute", "sym",
]
