"""Serving benchmark of the repository (see run.py)."""
