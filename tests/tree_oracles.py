"""Free-tree counts that share nothing with rhomin's generator, for checking
it: labelled trees by Pruefer sequence deduplicated by canonical code, and
the rooted-tree counting recurrence."""

import heapq

from rhomin.graphs import Graph, build_graph, canonical_code
from rhomin.search import BudgetError


def naive_free_tree_count(n: int) -> int:
    """Independent free-tree count for small n: iterate labeled trees by
    Pruefer sequence and deduplicate by canonical code."""
    if n > 8:
        raise BudgetError("naive count supported for n <= 8")
    if n == 1 or n == 2:
        return 1
    seen = set()
    for code in range(n ** (n - 2)):
        seq = []
        x = code
        for _ in range(n - 2):
            seq.append(x % n)
            x //= n
        seen.add(canonical_code(_tree_from_pruefer(n, seq)))
    return len(seen)


def _tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return build_graph(n, edges)


def counted_free_trees(n: int) -> int:
    """Free-tree count by the rooted-tree counting recurrence (independent of
    any generator): r(n) via divisor convolution, then free counts by removing
    root symmetries."""
    # rooted trees: r(1)=1, n*r(n+1) = sum_{k=1..n} (sum_{d|k} d*r(d)) r(n-k+1)
    r = [0, 1]
    for size in range(2, n + 1):
        acc = 0
        for k in range(1, size):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            acc += s * r[size - k]
        r.append(acc // (size - 1))
    # free trees by the dissimilarity identity:
    # t(n) = r(n) - (sum_{i+j=n} r(i)r(j) - [n even] r(n/2)) / 2
    conv = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        conv -= r[n // 2]
    return r[n] - conv // 2
