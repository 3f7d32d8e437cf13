"""Audiovisual residual-network engine for Big Five apparent-trait regression."""

__version__ = "0.1.0"

from .data import TRAITS, Clip  # noqa: F401
from .model import full_architecture, mini_architecture  # noqa: F401
