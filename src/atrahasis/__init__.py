"""Minimum-storage-regenerating codes via symmetric and exterior tensor
powers, with star-vector search/certification, code shortening, and a
single-process storage-cluster simulator."""

from .code import (CodeParams, FileTensor, HelpMessage, NodeContent,
                   StarFamily, derive_params, download, encode, help_message,
                   node_content, repair, rs_stars_t2, verify_axioms)
from .fields import FieldSpec, binary_field, prime_field

__all__ = [
    "CodeParams", "FileTensor", "HelpMessage", "NodeContent", "StarFamily",
    "derive_params", "download", "encode", "help_message", "node_content",
    "repair", "rs_stars_t2", "verify_axioms",
    "FieldSpec", "binary_field", "prime_field",
]

__version__ = "0.1.0"
