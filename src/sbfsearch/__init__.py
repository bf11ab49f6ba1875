"""Privacy-preserving searchable meta-record store.

Clients build obfuscated Bloom-filter indexes over sealed personal meta
records; a server holds an array of bounded buffers supporting keyword-
and location-scoped retrieval by buffer intersection, with add/remove
and conjunctive queries. The analysis and simulation modules evaluate
the scheme's privacy probabilities and capacity requirements.
"""
