"""Closed-loop benchmark of corridorflow; see README.md."""
