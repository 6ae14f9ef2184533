"""Minimum-storage-regenerating codes via symmetric and exterior tensor
powers, with star-vector search/certification, code shortening, and a
single-process storage-cluster simulator."""

from .code import (CodeParams, HelpMessage, NodeContent, StarFamily,
                   derive_params, rs_stars_t2, verify_axioms)
from .fields import FieldSpec, binary_field, prime_field
from .transforms import ShortenedCode, shorten

__all__ = [
    "CodeParams", "HelpMessage", "NodeContent", "StarFamily",
    "derive_params", "rs_stars_t2", "verify_axioms",
    "FieldSpec", "binary_field", "prime_field", "ShortenedCode", "shorten",
]

__version__ = "0.1.0"
