"""Readable reference implementations the test suite checks ``src/`` against.

Each module here is a plain, unoptimised twin of one computation in
:mod:`repro` — kept out of the package so every computation has a single
implementation in ``src/``, and the optimised one is pinned bit-for-bit to
an oracle that is easy to read.
"""
