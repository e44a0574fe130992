"""Graph serialization: graph6 strings and a plain edge-list text format.

graph6 follows the standard 6-bit encoding (optional ">>graph6<<" header on
input, upper-triangle bits in column-major order, each 6-bit group offset by
63). The edge-list format is a first line "n m" followed by m lines "u w"
with 0-based vertex indices. Both formats use dense 0-based labels, so no
relabeling map is needed.
"""

from __future__ import annotations

from .graph import Graph, from_edge_list

GRAPH6_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode as a canonical graph6 string (no header, zero padding)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError(f"graph6 long form not supported for n={n}")
    bits = []
    for col in range(1, n):
        colrow = g.rows[col]
        for rowv in range(col):
            bits.append((colrow >> rowv) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = (group << 1) | b
        body.append(group + 63)
    return "".join(chr(c) for c in head + body)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; an optional ">>graph6<<" header is stripped."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("graph6 characters outside the 6-bit range")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        if data[1] == 63:
            raise ValueError("graph6 long form (n > 258047) not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n == 0:
        raise ValueError("graph6 graph with zero vertices")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body has {len(body)} groups, expected {(nbits + 5) // 6} for n={n}"
        )
    bits = []
    for group in body:
        for shift in range(5, -1, -1):
            bits.append((group >> shift) & 1)
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for rowv in range(col):
            if bits[idx]:
                rows[col] |= 1 << rowv
                rows[rowv] |= 1 << col
            idx += 1
    return Graph(n, rows)


def to_edge_list_text(g: Graph) -> str:
    """Encode as "n m" plus one "u w" line per edge (u < w, sorted)."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {w}" for u, w in edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the "n m" edge-list format; the edge count must match."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    n, m = (int(tok) for tok in header)
    if len(lines) - 1 != m:
        raise ValueError(f"edge-list declares {m} edges but has {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)


def loads(text: str) -> Graph:
    """Parse either format, autodetected.

    A first line of exactly two integers is read as the edge-list header;
    anything else is treated as graph6.
    """
    stripped = text.strip()
    first = stripped.splitlines()[0].split() if stripped else []
    if len(first) == 2:
        try:
            int(first[0]), int(first[1])
        except ValueError:
            return from_graph6(stripped)
        return from_edge_list_text(text)
    return from_graph6(stripped)
