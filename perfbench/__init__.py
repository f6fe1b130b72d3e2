"""Benchmark of the ecat pipeline; see README.md and run.py."""
