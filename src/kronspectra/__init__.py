"""Distance spectra of graph families and their Kronecker products.

Construct cycles, complete graphs, Johnson and Hamming graphs and their
Kronecker products; compute distance spectra both from closed forms and
from an independent oracle that solves each family's D and A as block
group matrices; reconstruct distance matrices as polynomials of adjacency
matrices; certify distance integrality.
"""

from .circulant import (
    block_circulant_matrix,
    block_circulant_reduce,
    circulant_eigenvalues,
    circulant_matrix,
    cycle_combo_eigenvalues,
    cycle_combo_spectrum,
)
from .closedform import (
    IntegralityReport,
    IntersectionArray,
    check_integrality,
    hamming_adjacency_spectrum,
    hamming_distance_spectrum,
    hamming_intersection,
    johnson_adjacency_spectrum,
    johnson_distance_spectrum,
    johnson_intersection,
    kron_complete_spectrum,
    kron_cycle_even_spectrum,
    kron_cycle_odd_spectrum,
    kron_hamming_spectrum,
    kron_johnson_spectrum,
)
from .errors import (
    BipartiteGraphError,
    DisconnectedGraphError,
    FamilyDomainError,
    FamilyParseError,
    KronSpectraError,
    NoClosedFormError,
    NonSymmetricMatrixError,
    OrderCapError,
)
from .graphs import (
    Complete,
    Cycle,
    FamilySpec,
    Graph,
    Hamming,
    Johnson,
    Kron,
    build_family,
    diameter,
    distance_matrix,
    family_order,
    family_to_string,
    from_edge_list_text,
    gamma,
    has_odd_cycle,
    is_connected,
    kronecker_connectivity_predicted,
    kronecker_product,
    predicted_kron_diameter,
    to_edge_list_text,
    walk_gamma,
)
from .numeric import symmetric_eigenvalues
from .oracle import oracle_distance_spectrum
from .polynomials import (
    Polynomial,
    hamming_distance_polynomial,
    johnson_distance_polynomial,
    lagrange_basis,
    matrix_polynomial_eval,
    vandermonde_solve,
)
from .spectrum import MatchReport, Spectrum, spectra_match, spectrum_from_values
from .verify import (
    closed_form_distance_spectrum,
    verify_family,
)
from .cli import parse_family

__version__ = "0.1.0"
