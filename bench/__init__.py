"""End-to-end + per-layer benchmark of the query service (see README.md).

Drives ``repro`` only through its public surface; nothing in ``src/``
imports this package.
"""
