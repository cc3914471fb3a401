"""Execution engines: the vectorized executor every statement runs on, and
the compiled produce/consume engine, a test-only reference."""
