"""Layered benchmark for impulse-floquet; see perfbench/run.py."""
