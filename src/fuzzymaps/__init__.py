"""Fuzzy cognitive and relational map models over partitioned matrices.

Build or load a connection-matrix model, seed some nodes, and iterate the
threshold dynamics until the hidden pattern (fixed point or limit cycle)
appears.  See the README for the file format and the command-line front end.
"""

# each module's __all__ is its public interface; the package republishes them
from .supermatrix import *
from .dynamics import *
from .models import *
from .model_io import *
from . import errors

__version__ = "0.1.0"

__all__ = [
    *supermatrix.__all__,
    *dynamics.__all__,
    *models.__all__,
    *model_io.__all__,
    "errors",
]
