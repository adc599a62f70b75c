"""Configuration spaces of graphs with sinks: combinatorial models,
exact integer homology, and explicit generating cycles.

``class_span`` reads its cycles in order and stops once those read
generate the homology group over the integers; the cycles after that
stop are neither read nor checked, so their validity is the caller's
concern.  ``enumerate_basic_classes(...).chains`` builds each candidate
when a reader first reaches it."""

from .graphs import (Graph, GraphSpec, GraphSpecError, banana, build_graph,
                     circle, complete, complete_bipartite, dimension_bound,
                     dump_graph, essential_vertices, graph_from_doc,
                     graph_to_doc, h_graph, interval, load_graph,
                     parse_graph_spec, star, subdivide_edge, wedge)
from .model import (CapExceededError, Chain, CubeComplex, InvariantError,
                    boundary_chain, boundary_of_cell, cell_dimension,
                    cell_is_valid, corner_configurations, enumerate_cells,
                    face, make_cell, relabel_cell, relabel_chain)
from .homology import (HomologySummary, SparseIntMatrix, boundary_matrix,
                       class_span, class_span_rank, euler_characteristic,
                       homology, is_boundary, is_cycle, rank_over_rationals,
                       smith_normal_form, solve_in_image)
from .cycles import (BasicClasses, CircuitSpec, CycleConstructionError,
                     HSpec, StarSpec, chain_to_doc, circuit_cycle_chain,
                     enumerate_basic_classes, h_cycle_chain,
                     loop_augmented_nonproduct, nonproduct_cycle,
                     nonproduct_cycle_chain, parked_chain, product_chain,
                     push_in, star4_relation_chain, star_cycle_chain)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
