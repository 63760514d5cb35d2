"""Command line interface.

Commands::

    supdeform validate --config PATH
    supdeform axioms   --config PATH
    supdeform chain    --config PATH [--weight W ...]
    supdeform betti    --config PATH [--weight W ...]
    supdeform ffamily  (--closed | --nonclosed) [--grid N]
    supdeform schouten --config PATH

Exit codes: 0 success, 1 axiom or internal-consistency failure,
2 configuration error.  ``--format json`` emits a single JSON object whose
serialization is stable (sorted keys), so reports round-trip byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import axioms as axioms_mod
from . import homology
from .brackets import deformed_schouten, extension_vectors, solve_g0_doubleprime, solve_g0_prime
from .chains import ChainComplexSystem
from .config import ConfigError, RunConfig, load_config
from .exterior import schouten as plain_schouten
from .liealg import OneForm
from .scalars import format_over


def _emit(payload: dict, fmt: str, text_pieces):
    """Write the report to stdout in pieces, then a newline: the JSON form of
    payload, or the str pieces that text_pieces() yields.  A JSON piece holds
    at most one dict key, one list item or one boundary row, and the text of
    ``chain`` yields one row or basis label at a time, so a ``chain`` dump is
    rendered here from the sparse columns of its matrices and is never held
    whole as text."""
    write = sys.stdout.write
    if fmt == "json":
        _write_json(payload, "", write)
    else:
        for piece in text_pieces():
            write(piece)
    write("\n")


def _write_json(value, indent: str, write):
    """Pass the pieces of ``value`` rendered at this indent to write."""
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = indent + "  "
        lead = "{\n"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(lead + inner + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, write)
            lead = ",\n"
        write("\n" + indent + "}")
    elif isinstance(value, _BoundaryRows):
        value.write_json(indent, write)
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = indent + "  "
        if set(map(type, value)) == {str}:
            lead = "[\n" + inner
            for item in map(encode_basestring_ascii, value):
                write(lead + item)
                lead = ",\n" + inner
            write("\n" + indent + "]")
            return
        lead = "[\n"
        for item in value:
            write(lead + inner)
            _write_json(item, inner, write)
            lead = ",\n"
        write("\n" + indent + "]")
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))
    else:
        write(json.dumps(value))


class _BoundaryRows:
    """The rows of a boundary matrix as a report holds them, lists of entry
    strings, rendered one row at a time from the matrix's sparse columns.
    Only the nonzero entries are formatted, each from its numerators over
    the matrix's scale; every zero cell is one constant string, placed by
    copying a row of them."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: homology.BoundaryMatrix):
        self.matrix = matrix

    def joined(self, zero: str, cell, sep: str) -> Iterator[str]:
        """Each row's cells joined by sep: a zero entry is zero, a nonzero
        one cell(its text)."""
        M = self.matrix
        by_row: list[list[tuple[int, str]]] = [[] for _ in M.rows]
        for c, column in enumerate(M.columns):
            for r, e in column.items():
                by_row[r].append((c, cell(format_over(e, M.scale))))
        blank = [zero] * len(M.cols)
        for entries in by_row:
            cells = blank.copy()
            for c, text in entries:
                cells[c] = text
            yield sep.join(cells)

    def write_json(self, indent: str, write):
        """The rows as ``_write_json`` renders a list of lists of str."""
        if not self.matrix.rows:
            write("[]")
            return
        inner = indent + "  "
        cell_indent = inner + "  "
        head, tail = "[\n" + cell_indent, "\n" + inner + "]"
        lead = "[\n" + inner
        for row in self.joined('"0"', encode_basestring_ascii, ",\n" + cell_indent):
            write(lead + (head + row + tail if self.matrix.cols else "[]"))
            lead = ",\n" + inner
        write("\n" + indent + "]")

def _resolved_format(config: RunConfig, args) -> str:
    return args.format if args.format else config.output_format


def _weights(config: RunConfig, args) -> list[int]:
    if getattr(args, "weight", None):
        return list(args.weight)
    if config.weights:
        return config.weights
    raise ConfigError("no weights given: set [run] weights or pass --weight")


def cmd_validate(config: RunConfig, args) -> int:
    g0p = solve_g0_prime(config.algebra, config.phi)
    g0pp = solve_g0_doubleprime(config.algebra, config.phi)
    payload = {
        "command": "validate",
        "algebra": repr(config.algebra),
        "jacobi": "ok",
        "phi_closed": config.deformation.phi_closed,
        "deformation": config.deformation.describe(),
        "g0prime_dim": g0p.dim,
        "g0prime_bracket_closed": g0p.bracket_closed,
        "g0doubleprime_dim": g0pp.dim,
    }

    def text():
        lines = [
            f"algebra: {payload['algebra']}",
            "jacobi: ok",
            f"phi closed: {payload['phi_closed']}",
            f"deformation: {payload['deformation']}",
            f"dim g0' = {g0p.dim} (bracket closed: {g0p.bracket_closed}), dim g0'' = {g0pp.dim}",
        ]
        return "\n".join(lines)

    _emit(payload, _resolved_format(config, args), lambda: [text()])
    return 0


def _axiom_systems(config: RunConfig):
    systems = [axioms_mod.form_system(config.deformation)]
    if config.extension != "none":
        vectors = extension_vectors(config.algebra, config.phi, config.extension)
        systems.append(axioms_mod.extension_system(config.deformation, vectors))
    return systems


def cmd_axioms(config: RunConfig, args) -> int:
    reports = []
    for system in _axiom_systems(config):
        reports.append(axioms_mod.check_supersymmetry(system))
        reports.append(axioms_mod.check_superjacobi(system))
    payload = {"command": "axioms", "reports": [r.to_json() for r in reports]}
    _emit(payload, _resolved_format(config, args), lambda: ["\n".join(str(r) for r in reports)])
    return 0 if all(r.passed for r in reports) else 1


def cmd_chain(config: RunConfig, args) -> int:
    system = ChainComplexSystem(config.deformation, config.extension)
    # every matrix of every weight is built before the first write, so that a
    # failed consistency check leaves stdout empty
    blocks = []
    for w in _weights(config, args):
        per_degree = [
            {"m": M.m, "basis": [system.word_label(word) for word in M.cols], "boundary": _BoundaryRows(M)}
            for M in homology.boundary_matrices(system, w)
        ]
        blocks.append({"weight": w, "chain": per_degree})
    payload = {"command": "chain", "weights": blocks}

    def text():
        lead = ""
        for block in blocks:
            yield f"{lead}weight {block['weight']}"
            lead = "\n"
            for entry in block["chain"]:
                basis = entry["basis"]
                yield f"\n  C_{entry['m']}: dim {len(basis)}  basis " + (basis[0] if basis else "(none)")
                for k in range(1, len(basis)):
                    yield ", " + basis[k]
                for row in entry["boundary"].joined("0", str, ", "):
                    yield "\n    [" + row + "]"

    _emit(payload, _resolved_format(config, args), text)
    return 0


def cmd_betti(config: RunConfig, args) -> int:
    system = ChainComplexSystem(config.deformation, config.extension)
    reports = [homology.betti_piecewise(system, w) for w in _weights(config, args)]
    payload = {"command": "betti", "reports": [r.to_json() for r in reports]}
    _emit(payload, _resolved_format(config, args), lambda: ["\n\n".join(r.to_text() for r in reports)])
    return 0


def cmd_ffamily(args) -> int:
    solver = axioms_mod.solve_F_closed if args.closed else axioms_mod.solve_F_nonclosed
    space = solver(args.grid)
    payload = {"command": "ffamily", "space": space.to_json()}

    def text():
        lines = [
            f"constraints: {space.constraints}, grid {space.grid}",
            f"solution dimension: {space.dimension}",
        ]
        for idx, table in enumerate(space.basis):
            entries = ", ".join(f"F({a},{b})={v}" for (a, b), v in sorted(table.items()) if a <= b)
            lines.append(f"basis[{idx}]: {entries}")
        return "\n".join(lines)

    _emit(payload, args.format or "text", lambda: [text()])
    return 0


def cmd_schouten(config: RunConfig, args) -> int:
    algebra, phi = config.algebra, config.phi
    system = axioms_mod.multivector_system(algebra, phi)
    reports = [axioms_mod.check_supersymmetry(system), axioms_mod.check_superjacobi(system)]
    # structural reductions of the deformed bracket; the phi-deformed images
    # of the monomial items are in the table the checkers just filled
    degree_one_ok = True
    zero_phi_ok = True
    zero_form = OneForm.zero(algebra.n)
    for i, x in enumerate(system.items):
        for j, y in enumerate(system.items):
            plain = plain_schouten(algebra, x.element, y.element)
            if x.superdegree == 0 and y.superdegree == 0:
                if system.pair_images[i].get(j, {}) != plain.terms:
                    degree_one_ok = False
            if deformed_schouten(algebra, x.element, y.element, zero_form) != plain:
                zero_phi_ok = False
    cocycle = config.deformation.phi_closed
    payload = {
        "command": "schouten",
        "phi_is_cocycle": cocycle,
        "degree_one_reduces_to_lie": degree_one_ok,
        "zero_phi_reduces_to_schouten": zero_phi_ok,
        "reports": [r.to_json() for r in reports],
    }

    def text():
        lines = [
            f"phi is a 1-cocycle: {cocycle}",
            f"degree-1 case reduces to the Lie bracket: {degree_one_ok}",
            f"phi = 0 reduces to the plain Schouten bracket: {zero_phi_ok}",
        ]
        lines.extend(str(r) for r in reports)
        return "\n".join(lines)

    _emit(payload, _resolved_format(config, args), lambda: [text()])
    ok = all(r.passed for r in reports) and degree_one_ok and zero_phi_ok
    return 0 if ok else 1


@functools.cache  # built on the first call, then shared by every main() of the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="supdeform", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="path to a run configuration file")
        p.add_argument("--format", choices=("text", "json"), default=None)
        return p

    with_config(sub.add_parser("validate", help="parse the config and report the setup"))
    with_config(sub.add_parser("axioms", help="check super symmetry and super Jacobi"))
    p_chain = with_config(sub.add_parser("chain", help="dump chain bases and boundary matrices"))
    p_chain.add_argument("--weight", type=int, action="append")
    p_betti = with_config(sub.add_parser("betti", help="piecewise Betti numbers per weight"))
    p_betti.add_argument("--weight", type=int, action="append")
    p_ff = sub.add_parser("ffamily", help="solve the admissibility conditions on F")
    group = p_ff.add_mutually_exclusive_group(required=True)
    group.add_argument("--closed", action="store_true")
    group.add_argument("--nonclosed", action="store_true")
    p_ff.add_argument("--grid", type=int, default=8)
    p_ff.add_argument("--format", choices=("text", "json"), default=None)
    with_config(sub.add_parser("schouten", help="deformed-Schouten axiom run"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ffamily":
            return cmd_ffamily(args)
        config = load_config(args.config)
        if args.command == "validate":
            return cmd_validate(config, args)
        if args.command == "axioms":
            return cmd_axioms(config, args)
        if args.command == "chain":
            return cmd_chain(config, args)
        if args.command == "betti":
            return cmd_betti(config, args)
        if args.command == "schouten":
            return cmd_schouten(config, args)
        raise AssertionError(f"unhandled command {args.command}")
    except RuntimeError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
