"""schemex: symmetric association schemes, their spectra, and P-polynomial detection."""

from .detect import DetectionReport, RouteVerdict, analyze, detect
from .families import FamilySpec, corpus, generate
from .graph_tools import (
    Graph,
    distance_data,
    graph_spectrum,
    scheme_from_drg,
    spectral_excess_report,
)
from .poly import (
    PredistanceSystem,
    Spectrum,
    graph_property_residual,
    inner_product,
    kappa,
    lagrange_power_identity,
    predistance_polynomials,
)
from .scheme_core import (
    AssociationScheme,
    IntersectionTensor,
    RelationMatrix,
    build_scheme,
    reorder_relations,
)
from .spectral import (
    KreinTensor,
    SpectralData,
    krein_parameters,
    primitive_idempotents,
    spectral_data,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme", "DetectionReport", "FamilySpec", "Graph",
    "IntersectionTensor", "KreinTensor", "PredistanceSystem",
    "RelationMatrix", "RouteVerdict", "SpectralData", "Spectrum",
    "analyze", "build_scheme", "corpus", "detect", "distance_data",
    "generate", "graph_property_residual", "graph_spectrum", "inner_product",
    "kappa", "krein_parameters", "lagrange_power_identity",
    "predistance_polynomials", "primitive_idempotents", "reorder_relations",
    "scheme_from_drg", "spectral_data", "spectral_excess_report",
]
