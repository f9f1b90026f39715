"""Exact determinants of block matrices with partially commuting blocks."""
