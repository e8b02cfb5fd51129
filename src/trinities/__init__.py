"""Exact combinatorics of plane bipartite graphs and their trinities.

One number — the magic number — computed along many independent routes:
determinants, arborescences, matchings, hypertrees, triangulations, link
polynomials and sutured-support sets, all in exact integer arithmetic.
"""

__version__ = "0.1.0"
