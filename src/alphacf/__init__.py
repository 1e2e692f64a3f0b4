"""Alpha-continued fractions, k-Brjuno and Wilton functions, and BMO experiments."""

from .numkit import (  # noqa: F401
    GOLDEN,
    BallFloat,
    ExactNumber,
    Surd,
    format_exact,
    make_surd,
    parse_exact,
    to_mpf,
)

__version__ = "0.1.0"
