"""Directed subtype graph with reachability computed on demand.

An edge T1 -> T2 means the extent of T1 is contained in T2's. Names that reach
each other denote provably equivalent extents. The graphs involved are small
(a few dozen names), so every query walks the graph afresh and nothing is
cached between edge insertions.
"""

from __future__ import annotations


class SubtypeGraph:
    def __init__(self):
        self.adj: dict[str, set[str]] = {}

    def add_edge(self, t1: str, t2: str):
        self.adj.setdefault(t1, set()).add(t2)
        self.adj.setdefault(t2, set())

    def _reachable(self, name: str) -> set[str]:
        seen = {name}
        stack = [name]
        while stack:
            for w in self.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def subsumes(self, t1: str, t2: str) -> bool:
        """True when T1's extent is provably contained in T2's (reachability)."""
        if t1 not in self.adj or t2 not in self.adj:
            return t1 == t2
        return t2 in self._reachable(t1)

    def equivalents(self, name: str) -> tuple[str, ...]:
        """All names that reach and are reached by NAME, sorted; the first is
        the representative."""
        if name not in self.adj:
            return (name,)
        return tuple(sorted(w for w in self._reachable(name) if name in self._reachable(w)))

    def representative(self, name: str) -> str:
        return self.equivalents(name)[0]

    def minimal_among(self, names: list[str]):
        """A name whose extent is contained in every listed extent, or None.

        When one exists, returns the lexicographically least name equivalent
        to it, so equivalent-type cycles resolve deterministically.
        """
        for n in names:
            if all(self.subsumes(n, m) for m in names):
                return self.representative(n)
        return None
