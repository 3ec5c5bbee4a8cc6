"""Exact convolution powers of discrete uniform distributions, their maximal
probabilities, and certified verdicts for the sharp concentration bounds.

Public names are imported from their modules (``uniconc.exactdist``,
``uniconc.certify``, ...); each module's ``__all__`` lists them."""

__version__ = "0.1.0"
