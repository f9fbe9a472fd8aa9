"""Hotspot detection and centrality analysis for gridded telecom traffic.

The pipeline goes: parse the raw activity / interaction / grid files
(:mod:`gridhot.ingest`), pick hotspot cells above a parametric traffic
cutoff (:mod:`gridhot.hotspot`), build a weighted interaction graph over
them (:mod:`gridhot.graph`), score every node with five centrality metrics
(:mod:`gridhot.centrality`) and quantify how stable the scores are between
two time windows (:mod:`gridhot.compare`).  :mod:`gridhot.synth` generates
deterministic synthetic cities so the whole chain is testable without real
data, and :mod:`gridhot.cli` wires everything into a multi-command tool.
"""

__version__ = "0.1.0"

# Here rather than in gridhot.centrality, which re-exports them, so that the
# command-line parser reads them without importing the solvers.
METRICS = ("closeness", "betweenness", "degree", "pagerank", "eigenvector")

PAGERANK_VARIANTS = ("weighted", "literal")
