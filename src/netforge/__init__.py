"""Weighted planar networks, their rank certification, and the bump
configuration pipeline built on top of them."""

__version__ = "1.0.0"

from .network import (Network, NetworkError, forces, lengths, is_balanced,
                      is_connected, is_embedded, is_unitary, load_network,
                      save_network, edge_key)
from .catalog import (catalog, catalog_names, chain, regular_polygon,
                      triangle, polygon_center, n_v, n_y, n_c)
from .linearize import (adjointness_defect, build_differentials, certify,
                        lambda_matrix, lambda_ring_matrix, numerical_rank,
                        nv_closability_criterion)
from .balance import balance_nearby, realize_triangle
from .interaction import (InteractionTable, build_table, load_or_build,
                          ground_state_beta)
from .assembly import (Assembly, SubNetwork, verify_assembly,
                       coordinate_quantization, solve_master, generate_cloud,
                       neighbor_graph, save_cloud, load_cloud,
                       diagnostic_chain_cloud, save_assembly, load_assembly)
from .fields import (Field, FieldWindow, residual, residual_norms,
                     project_force, predicted_force)
from .builders import (assembly_catalog, assembly_names, example_5_1,
                       example_5_2, n_c_assembly, n_v_assembly)
