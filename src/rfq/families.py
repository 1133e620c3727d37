"""Retired: the candidate and distinct flag families.

This module built, per (tier, scale), the candidate families that
majority and mode queries read their candidates from and the distinct
families that minority queries read at trade > 1, and it read and
checked their file sections.  On the Huffman-shaped wavelet matrix every
access and rank those candidates needed walks a whole code, so the
flagged paths cost the same O(lg sigma / tau) level steps as one pruned
split walk over the matrix, with larger constants, while the families
took most of the index's bits.  Every query now runs such a walk (see
`majority` and `minority`), and since format version 7 the file has no
family sections.

The module stays, empty, because tracing tools import each rfq module by
name and report the classes and functions it no longer has as absent.
"""
