"""Mockingbird combinatory-logic rewriting and lattice enumeration.

Modules:
    terms      binary application terms: parsing and printing, prefix keys
    mterms     terms over {M} as prefix keys: encoding, root split, step,
               extremal flags
    rewrite    combinatory logic systems, one-step rewriting on prefix keys,
               component exploration, hierarchy/confluence analysis
    posets     explored digraphs and order analysis (Hasse, lattice checks)
    forests    duplicative forests, the duplication step, meet/join
    bridge     the term-to-forest translation fr and isomorphism verification
    series     truncated integer power series and the counting equations
    sequences  closed recurrences, b-file comparison, cross-checks
    oracle     brute-force ground truth on explicitly built posets
    cli        command-line entry point
"""

__version__ = "0.1.0"
