"""Mockingbird combinatory-logic rewriting and lattice enumeration.

Modules:
    terms      binary application terms: parsing and printing
    rewrite    combinatory logic systems, one-step rewriting on prefix keys,
               component exploration, hierarchy/confluence/extremal analysis
    posets     explored digraphs and order analysis (Hasse, lattice checks)
    forests    duplicative forests, the duplication step, meet/join
    bridge     the term-to-forest translation and isomorphism verification
    series     truncated integer power series and the counting equations
    sequences  closed recurrences, b-file comparison, cross-checks
    oracle     brute-force ground truth on explicitly built posets
    cli        command-line entry point
"""

__version__ = "0.1.0"
