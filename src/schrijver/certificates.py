"""Proof-carrying paths and their independent verifier.

A certificate is an explicit vertex sequence claimed to join its endpoints.
`check_certificate_data` re-derives every requirement (element ranges,
2-stability, consecutive disjointness, length bound) from raw member
tuples with plain loops; it deliberately shares no code with the modules
that construct certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cyclic import MAX_N, SET_TEXT, StableSet, set_text_ints
from .errors import CertificateError, ParameterError


@dataclass(frozen=True)
class PathCertificate:
    """Vertex sequence (first = source, last = target) with a length claim."""

    vertices: tuple[StableSet, ...]
    claimed_bound: int

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ParameterError("certificate needs at least one vertex")

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1


def check_certificate_data(
    n: int,
    k: int,
    member_seqs: Sequence[Sequence[int]],
    claimed_bound: int,
) -> list[str]:
    """Verify raw certificate data; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(n, int) or not isinstance(k, int) or n < 2 or k < 1:
        return [f"bad parameters n={n!r}, k={k!r}"]
    if not member_seqs:
        return ["certificate has no vertices"]
    if not isinstance(claimed_bound, int) or claimed_bound < 0:
        problems.append(f"bad claimed_bound {claimed_bound!r}")

    seqs = [tuple(seq) for seq in member_seqs]
    for pos, seq in enumerate(seqs):
        if len(seq) != k:
            problems.append(f"vertex {pos} has {len(seq)} elements, expected {k}")
            continue
        bad = False
        for x in seq:
            if not isinstance(x, int) or not 1 <= x <= n:
                problems.append(f"vertex {pos}: element {x!r} outside 1..{n}")
                bad = True
        if bad:
            continue
        for i in range(len(seq) - 1):
            if seq[i + 1] <= seq[i]:
                problems.append(f"vertex {pos}: members not strictly increasing")
                bad = True
                break
            if seq[i + 1] - seq[i] < 2:
                problems.append(
                    f"vertex {pos}: elements {seq[i]},{seq[i + 1]} are consecutive"
                )
                bad = True
        if not bad and len(seq) >= 2 and seq[0] == 1 and seq[-1] == n:
            problems.append(f"vertex {pos}: elements {n},1 are consecutive on the cycle")

    for pos in range(len(seqs) - 1):
        shared = set(seqs[pos]) & set(seqs[pos + 1])
        if shared:
            problems.append(
                f"vertices {pos} and {pos + 1} are not adjacent: share {sorted(shared)}"
            )

    edges = len(seqs) - 1
    if isinstance(claimed_bound, int) and edges > claimed_bound:
        problems.append(f"path has {edges} edges, more than claimed bound {claimed_bound}")
    return problems


def verify_certificate(
    cert: PathCertificate,
    source: StableSet | None = None,
    target: StableSet | None = None,
) -> None:
    """Raise CertificateError unless the certificate checks out."""
    params = cert.vertices[0].params
    for v in cert.vertices:
        if v.params != params:
            raise CertificateError("certificate mixes ground-set parameters")
    problems = check_certificate_data(
        params.n,
        params.k,
        [v.members for v in cert.vertices],
        cert.claimed_bound,
    )
    if source is not None and cert.vertices[0] != source:
        problems.append("certificate does not start at the requested source")
    if target is not None and cert.vertices[-1] != target:
        problems.append("certificate does not end at the requested target")
    if problems:
        raise CertificateError("; ".join(problems))


def certificate_to_json(cert: PathCertificate) -> dict:
    params = cert.vertices[0].params
    return {
        "n": params.n,
        "k": params.k,
        "claimed_bound": cert.claimed_bound,
        "vertices": [str(v) for v in cert.vertices],
    }


def parse_certificate(data: object) -> tuple[int, int, int, list[tuple[int, ...]]]:
    """Raw `(n, k, claimed_bound, member_seqs)` of a certificate payload.

    Checks only the shape: integer fields, 2 <= n <= `MAX_N` (the
    library's cap), k >= 1, and a list of `1,3,6,8` strings.  Whether the
    path is valid is left to `check_certificate_data`.
    """
    if not isinstance(data, dict):
        raise ParameterError("malformed certificate payload: not a JSON object")
    fields = []
    for key in ("n", "k", "claimed_bound"):
        value = data.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(
                f"malformed certificate payload: {key}={value!r} is not an integer"
            )
        fields.append(value)
    texts = data.get("vertices")
    if not isinstance(texts, list):
        raise ParameterError("malformed certificate payload: vertices must be a list")
    for text in texts:
        if not isinstance(text, str) or not SET_TEXT.fullmatch(text):
            raise ParameterError(f"malformed certificate payload: bad vertex {text!r}")
    n, k, bound = fields
    if not 2 <= n <= MAX_N or k < 1:
        raise ParameterError(
            f"malformed certificate payload: needs 2 <= n <= {MAX_N} and k >= 1, got n={n}, k={k}"
        )
    return n, k, bound, [set_text_ints(text, "malformed certificate payload") for text in texts]
