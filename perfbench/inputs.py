"""Seeded input graphs for the benchmark, written in tropilink's graph JSON.

Nothing here imports tropilink: the generators are configuration models
(random pairings of half-edges) with rejection, so the program under test
receives only the files they write.  The connectivity tests are brute force
rather than networkx, so that set-up imports nothing the program does not.

A graph is a plain tuple (n_vertices, edges, legs): edges are (u, v) pairs,
legs are (vertex, label) pairs.  Edge i gets half-edges 2i and 2i+1 and legs
the ids after the edges, the same layout as ``tropilink.build_graph``.
"""

from __future__ import annotations

import json


def to_json(graph) -> dict:
    n, edges, legs = graph
    half_edges = []
    for i, (u, v) in enumerate(edges):
        half_edges.append({"id": 2 * i, "vertex": u, "partner": 2 * i + 1})
        half_edges.append({"id": 2 * i + 1, "vertex": v, "partner": 2 * i})
    base = 2 * len(edges)
    leg_items = []
    for j, (v, label) in enumerate(legs):
        half_edges.append({"id": base + j, "vertex": v, "partner": base + j})
        leg_items.append({"half_edge": base + j, "label": label})
    return {"vertices": [{"id": v, "weight": 0} for v in range(n)],
            "half_edges": half_edges, "legs": leg_items}


def write_graph(path, graph):
    with open(path, "w") as fh:
        json.dump(to_json(graph), fh)


def _connected(n, edges, removed=()):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (a, b) in enumerate(edges):
        if i not in removed:
            parent[find(a)] = find(b)
    root = find(0)
    return all(find(v) == root for v in range(n))


def three_edge_connected(n, edges) -> bool:
    """No set of one or two edges disconnects the graph (brute force)."""
    if not _connected(n, edges):
        return False
    m = len(edges)
    for i in range(m):
        if not _connected(n, edges, {i}):
            return False
        for j in range(i + 1, m):
            if not _connected(n, edges, {i, j}):
                return False
    return True


def random_regular(rng, n, p, legs=0, simple=False, three_ec=False):
    """Uniform pairing of n*p points, `legs` of them left as labeled legs
    1..legs, retried until the result is connected (and simple and
    3-edge-connected when asked)."""
    while True:
        points = [v for v in range(n) for _ in range(p)]
        rng.shuffle(points)
        leg_pts, rest = points[:legs], points[legs:]
        edges = [tuple(sorted(rest[i:i + 2])) for i in range(0, len(rest), 2)]
        if simple and (any(a == b for a, b in edges)
                       or len(set(edges)) != len(edges)):
            continue
        if legs and any(a == b and a in leg_pts for a, b in edges):
            continue  # a loop at a leg vertex leaves it cut off
        if not _connected(n, edges):
            continue
        if three_ec and not three_edge_connected(n, edges):
            continue
        return (n, edges, [(v, i + 1) for i, v in enumerate(leg_pts)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return (10, outer + spokes + inner, [])


def polygon10():
    """The cubic 10-polygon P10: a 10-cycle plus the five diameters."""
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, i + 5) for i in range(5)]
    return (10, edges, [])
