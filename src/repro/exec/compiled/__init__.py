"""Compiled (produce/consume code generation) engine: the test-only
reference the vector executor is checked against."""

from .executor import CompiledExecutor

__all__ = ["CompiledExecutor"]
