"""Graph serialization: graph6 strings and a plain edge-list text format.

graph6 follows the standard 6-bit encoding (optional ">>graph6<<" header on
input, upper-triangle bits in column-major order, each 6-bit group offset by
63). The edge-list format is a first line "n m" followed by m lines "u w"
with 0-based vertex indices. Both formats use dense 0-based labels, so no
relabeling map is needed.
"""

from __future__ import annotations

import base64

from .graph import Graph, _check_order, from_edge_list

GRAPH6_HEADER = ">>graph6<<"


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# base64 digit i <-> graph6 character 63 + i: both encode six bits per
# character; a byte outside the graph6 range becomes "!", in neither alphabet
_B64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_B64 = bytes(_BASE64[c - 63] if 63 <= c < 127 else ord("!") for c in range(256))


def to_graph6(g: Graph) -> str:
    """Encode as a canonical graph6 string (no header, zero padding)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:  # MAX_VERTICES is 65,536, so n fits the long form's 18-bit size
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    rows = g.rows
    # column col holds rows 0..col-1 upward: the low bits of rows[col], reversed
    bits = "".join(format(rows[col] & ((1 << col) - 1), f"0{col}b")[::-1]
                   for col in range(1, n))
    groups = (len(bits) + 5) // 6
    # padded to whole 3-byte blocks, base64 splits the bits into 6-bit digits
    bits += "0" * (-len(bits) % 24)
    body = base64.b64encode(int(bits or "0", 2).to_bytes(len(bits) // 8, "big"))
    return head + body.translate(_B64_TO_GRAPH6)[:groups].decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; an optional ">>graph6<<" header is stripped."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    # utf-8 gives every character outside ASCII bytes of 0x80 and up
    digits = s.encode("utf-8", "surrogatepass").translate(_GRAPH6_TO_B64)
    if b"!" in digits:
        raise ValueError("graph6 characters outside the 6-bit range")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 size field")
        if s[1] == "~":
            raise ValueError("graph6 long form (n > 258047) not supported")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = digits[4:]
    else:
        n = ord(s[0]) - 63
        body = digits[1:]
    _check_order(n)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body has {len(body)} groups, expected {(nbits + 5) // 6} for n={n}"
        )
    # the encoder's path in reverse: padded to whole 4-digit blocks ("A" is
    # zero), base64 gives the bytes whose bits are the body's
    body += b"A" * (-len(body) % 4)
    bits = format(int.from_bytes(base64.b64decode(body), "big"), f"0{6 * len(body)}b")
    if "1" in bits[nbits:]:
        raise ValueError("nonzero padding bits in graph6 body")
    start = 0
    rows = [0] * n
    for col in range(1, n):
        low = rows[col] = int(bits[start : start + col][::-1], 2)
        start += col
        while low:
            b = low & -low
            low ^= b
            rows[b.bit_length() - 1] |= 1 << col
    # symmetric, loopless and in range by construction
    return Graph._trusted(n, rows)


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
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        u, w = int(parts[0]), int(parts[1])
        key = (min(u, w), max(u, w))
        if key in seen:
            raise ValueError(f"edge ({u}, {w}) listed twice")
        seen.add(key)
        edges.append((u, w))
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
