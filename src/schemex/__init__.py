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
from .scheme_core import (
    AssociationScheme,
    RelationMatrix,
    build_scheme,
)
from .spectral import (
    SpectralData,
    Spectrum,
    krein_parameters,
    predistance_polynomials,
    primitive_idempotents,
    spectral_data,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme", "DetectionReport", "FamilySpec", "Graph",
    "RelationMatrix",
    "RouteVerdict", "SpectralData", "Spectrum",
    "analyze", "build_scheme", "corpus", "detect", "distance_data",
    "generate", "graph_spectrum", "krein_parameters", "predistance_polynomials",
    "primitive_idempotents",
    "scheme_from_drg", "spectral_data", "spectral_excess_report",
]
