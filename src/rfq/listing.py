"""Retired: the range-leftmost listing engine.

This module held `ListingIndex`, which listed a range's distinct symbols
at their leftmost occurrences from the previous-occurrence array and a
range-minimum index over its block minima.  Minority queries read it at
trade 1, and majority queries read it when tau < 1/sigma.  Both now run
one split walk over the wavelet matrix (`WaveletSequence._minority_walk`
and `_split_walk`), which was faster on every measured corpus and needs
no stored block minima, so the engine and its file section were removed
with format version 7.  A majority query whose threshold
floor(tau * length) is 0 lists a range's distinct symbols with their
counts.

The module stays, empty, because tracing tools import each rfq module by
name and report the classes it no longer has as absent.
"""
