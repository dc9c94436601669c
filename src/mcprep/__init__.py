"""Circuits that prepare particle-number-conserving multiconfigurational
states, an exact statevector checker, and the algorithms built on top."""

__version__ = "0.1.0"
