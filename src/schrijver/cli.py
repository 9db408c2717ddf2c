"""Command-line front end.

Commands: enumerate, distance, diameter, table, witness, verify-path,
verify, scan.  Sets are written `1,3,6,8` (ascending, no spaces).  Exit
codes: 0 success, 1 usage error, 2 invariant violation / invalid
certificate, 3 regime or parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from .blocks import Decomposition, decompose, decomposition_to_json, disjoint_middle_vertex
from .certificates import (
    PathCertificate,
    certificate_to_json,
    check_certificate_data,
    parse_certificate,
    verify_certificate,
)
from .closedform import diameter_formula, witness_dist3, witness_lower4
from .cyclic import CycleParams, StableSet, members_of, parse_set_text, stable_masks, stable_set
from .errors import CertificateError, InvariantError, ParameterError, RegimeError, SchrijverError
from .graph import SchrijverGraph
from .lift import _bound_path, regime_m
from .paths import _path_dist3, _reduction_path, in_dist3_regime
from .suites import SUITES, scan_rows, table_rows

TABLE_SCHEMA = "# schrijver table v1: n,k,r,formula_lo,formula_hi,bfs,agree"
SCAN_SCHEMA = (
    "# schrijver scan v1 (empirical evidence only, not a proof): "
    "k,r,n,diameter,next_diameter,gap"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser, *, sets: bool = False) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    if sets:
        p.add_argument("--a", required=True, help="first vertex, e.g. 1,3,6,8")
        p.add_argument("--b", required=True, help="second vertex")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schrijver", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all vertices of SG(n,k)")
    _add_common(p)

    p = sub.add_parser("distance", help="BFS distance between two vertices")
    _add_common(p, sets=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--trace", action="store_true", help="include the lift trace when used")

    p = sub.add_parser("diameter", help="diameter of SG(n,k)")
    _add_common(p)
    p.add_argument("--method", choices=("auto", "formula", "bfs"), default="auto")
    p.add_argument("--no-orbit-reduction", action="store_true")

    p = sub.add_parser("table", help="formula vs BFS diameters, CSV")
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("witness", help="paper witness pairs")
    _add_common(p)
    p.add_argument("--kind", choices=("lower4", "dist3"), required=True)

    p = sub.add_parser("verify-path", help="re-check a serialized certificate")
    p.add_argument("--file", required=True, help="JSON file, or - for stdin")

    p = sub.add_parser("verify", help="run an invariant sweep")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("scan", help="conjecture evidence: diameters by r")
    p.add_argument("--k-max", type=int, required=True)

    for name in ("enumerate", "distance", "diameter", "witness"):
        sub.choices[name].add_argument("--format", choices=("plain", "json"), default="plain")
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def _emit(obj, newline: str, put) -> None:
    """Write `obj` through `put`; `newline` is a newline plus the indent of
    the line `obj` starts on."""
    kind = type(obj)
    if kind is str:
        put(encode_basestring_ascii(obj))
    elif kind is int:
        put(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, value in obj.items():
            put(head + encode_basestring_ascii(key) + ": ")
            _emit(value, inner, put)
            head = "," + inner
        put(newline + "}")
    elif kind is list:
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in obj):
            put("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        head = "[" + inner
        for item in obj:
            put(head)
            _emit(item, inner, put)
            head = "," + inner
        put(newline + "]")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif obj is None:
        put("null")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for dicts with str keys,
    lists, str, int, bool and None.

    With an indent, `json.dumps` runs the pure-Python encoder; this writer
    takes 22 us against its 48 us on the distance-2 `--explain` report
    (2-vCPU AMD EPYC), mostly by joining each list of ints in one step.
    """
    out: list[str] = []
    _emit(obj, "\n", out.append)
    return "".join(out)


def _vertex(text: str, params: CycleParams) -> StableSet:
    return stable_set(parse_set_text(text), params)


# Masks formatted per `cmd_enumerate` chunk.
_ENUMERATE_CHUNK = 65_536


def cmd_enumerate(args) -> str:
    """Every vertex's set text, one a line or as a JSON list of strings.

    The text comes from the masks a chunk at a time, with no `StableSet`
    per vertex: those took `enumerate --n 64 --k 5` to a 1.2 GB peak.
    """
    masks = stable_masks(CycleParams(args.n, args.k))
    if args.format == "json":
        head, sep, tail, empty = '["', '", "', '"]\n', "[]\n"
    else:
        head, sep, tail, empty = "", "\n", "\n", ""
    chunks = [
        sep.join([",".join(map(str, members_of(m))) for m in masks[i : i + _ENUMERATE_CHUNK].tolist()])
        for i in range(0, masks.size, _ENUMERATE_CHUNK)
    ]
    if not chunks:
        return empty
    # head and tail go onto the end chunks: no extra copy of the whole text
    chunks[0] = head + chunks[0]
    chunks[-1] += tail
    return sep.join(chunks)


def _certificate_for(
    a: StableSet, b: StableSet, d: Decomposition | None, dist: int, want_trace: bool
):
    """Constructive certificate matched to the regime, plus an optional lift trace.

    `d` is the pair's decomposition, None at distance 0 or 1.
    """
    if dist == 0:
        return None, None
    if dist == 1:
        return PathCertificate((a, b), 1), None
    if dist == 2:
        return PathCertificate((a, disjoint_middle_vertex(d), b), 2), None
    if in_dist3_regime(a.params.n, a.params.k):
        return _path_dist3(d), None
    try:  # the lift pipeline's own regime check decides, word cap included
        regime_m(a.params)
    except RegimeError:
        return _reduction_path(d), None
    cert, trace = _bound_path(d)
    return cert, trace if want_trace else None


def cmd_distance(args) -> str:
    params = CycleParams(args.n, args.k)
    a = _vertex(args.a, params)
    b = _vertex(args.b, params)
    g = SchrijverGraph(params)
    record = g.bfs_distance(a, b)
    if record.distance is None:
        raise InvariantError(f"{a} and {b} are in different components")
    if not args.explain and not args.trace and args.format == "plain":
        return f"{record.distance}\n"

    # distance >= 2 is exactly A != B intersecting: the pairs `decompose` takes
    d = decompose(a, b) if record.distance >= 2 else None
    cert, trace = _certificate_for(a, b, d, record.distance, args.trace)
    payload: dict = {
        "n": params.n,
        "k": params.k,
        "a": str(a),
        "b": str(b),
        "distance": record.distance,
    }
    if cert is not None:
        verify_certificate(cert, source=a, target=b)
        if cert.edge_count < record.distance:
            raise InvariantError("certificate shorter than the BFS distance")
        payload["certificate"] = certificate_to_json(cert)
    if args.explain and d is not None:
        payload["decomposition"] = decomposition_to_json(d)
    if trace is not None:
        payload["lift_trace"] = {
            "steps": [asdict(st) for st in trace.steps],
            "levels": [
                {"level": i, "n": av.params.n, "a": str(av), "b": str(bv)}
                for i, (av, bv) in enumerate(zip(trace.a_levels, trace.b_levels))
            ],
        }
    return _dumps(payload) + "\n"


def cmd_diameter(args) -> str:
    n, k = args.n, args.k
    result = None
    if args.method in ("auto", "formula"):
        result = diameter_formula(n, k)
    if args.method == "bfs" or (
        args.method == "auto" and result is not None and not result.exact
    ):
        g = SchrijverGraph(CycleParams(n, k))
        bfs = g.diameter_bruteforce(orbit_reduction=not args.no_orbit_reduction)
        if result is not None and not (result.lo <= bfs.value <= result.hi):
            raise InvariantError(
                f"BFS diameter {bfs.value} escapes formula interval [{result.lo}..{result.hi}]"
            )
        result = bfs
    if args.format == "json":
        payload = {
            "n": n,
            "k": k,
            "lo": result.lo,
            "hi": result.hi,
            "method": result.method,
        }
        if result.witness:
            payload["witness"] = [str(result.witness[0]), str(result.witness[1])]
        return json.dumps(payload) + "\n"
    if result.exact:
        return f"{result.value}\n"
    return f"[{result.lo}..{result.hi}]\n"


def _csv(schema: str, columns: str, rows: list[dict]) -> str:
    """Schema comment, header, then one line per row in column order."""
    names = columns.split(",")
    lines = [schema, columns] + [",".join(str(row[c]) for c in names) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_table(args) -> str:
    rows = table_rows(args.k_max)
    return _csv(TABLE_SCHEMA, "n,k,r,formula_lo,formula_hi,bfs,agree", rows)


def cmd_witness(args) -> str:
    if args.kind == "lower4":
        a, b = witness_lower4(args.n, args.k)
        cert = None
    else:
        a, b, cert = witness_dist3(args.n, args.k)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "kind": args.kind, "a": str(a), "b": str(b)}
        if cert is not None:
            payload["certificate"] = certificate_to_json(cert)
        return _dumps(payload) + "\n"
    return f"{a}\n{b}\n"


def cmd_verify_path(args) -> str:
    try:  # undecodable bytes and bad JSON are ValueErrors, deep nesting a RecursionError
        if args.file == "-":
            raw = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"malformed certificate payload: {exc}") from None
    n, k, bound, seqs = parse_certificate(data)
    problems = check_certificate_data(n, k, seqs, bound)
    if problems:
        raise CertificateError("; ".join(problems))
    return f"ok: {len(seqs) - 1} edges within claimed bound {bound}\n"


def _write(text: str, out: str | None) -> None:
    """Send a command's report to --out when given, else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> str:
    result = SUITES[args.suite](args.k_max)
    if not result.checked:
        raise ParameterError(f"suite {args.suite} runs no check at --k-max {args.k_max}")
    lines = [result.summary()]
    lines.extend(f"  counterexample: {msg}" for msg in result.failures)
    text = "\n".join(lines) + "\n"
    if not result.ok:
        _write(text, args.out)
        raise InvariantError(f"suite {args.suite} found violations")
    return text


def cmd_scan(args) -> str:
    rows = scan_rows(args.k_max)
    return _csv(SCAN_SCHEMA, "k,r,n,diameter,next_diameter,gap", rows)


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "distance": cmd_distance,
    "diameter": cmd_diameter,
    "table": cmd_table,
    "witness": cmd_witness,
    "verify-path": cmd_verify_path,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _write(_COMMANDS[args.command](args), args.out)
    except (InvariantError, CertificateError) as exc:
        print(f"schrijver: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, SchrijverError) as exc:
        print(f"schrijver: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"schrijver: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
