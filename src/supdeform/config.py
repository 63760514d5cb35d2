"""Run configuration: a sectioned key-value text format.

Grammar (see README for the full description)::

    [algebra]
    dim = 2
    names = y1 y2            # optional
    bracket 1 2 -> 1 : 1     # [y_1, y_2] = 1 * y_1, repeatable

    [phi]
    coeffs = 0 1             # section optional; default phi = 0

    [deformation]
    kind = standard          # standard | trivial | naive_dt
    F = kappa 1/2            # trivial only: kappa q | constant q | table
    F 0 0 = 1                # table entries when F = table

    [extension]
    subalgebra = none        # none | g0prime | g0doubleprime

    [run]
    weights = -3
    format = text            # text | json

Comments start with '#'.  Parsing failures raise ConfigError naming the
offending line; a Jacobi violation in the algebra section is surfaced the
same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .brackets import DeformationSpec, FSpec
from .liealg import LieAlgebraSpec, OneForm, validate_jacobi
from .scalars import rat


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    algebra: LieAlgebraSpec
    phi: OneForm
    deformation: DeformationSpec
    extension: str  # none | g0prime | g0doubleprime
    weights: list[int]
    output_format: str  # text | json


_BRACKET_RE = re.compile(r"^bracket\s+(\d+)\s+(\d+)\s*->\s*(\d+)\s*:\s*(\S+)$")
_FTABLE_RE = re.compile(r"^F\s+(\d+)\s+(\d+)\s*=\s*(\S+)$")
_SECTIONS = ("algebra", "phi", "deformation", "extension", "run")


def _fail(lineno: int, message: str):
    raise ConfigError(f"line {lineno}: {message}")


def _parse_rat(lineno: int, text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError, TypeError):
        _fail(lineno, f"not a rational number: {text!r}")


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()

    section = None
    dim = None
    names = None
    bracket_entries: list[tuple[int, int, int, int, Fraction]] = []  # lineno, i, j, k, c
    phi_coeffs = None
    kind = None
    f_mode = None  # ("kappa", q) | ("constant", q) | ("table", lineno)
    f_table: dict[tuple[int, int], tuple[int, Fraction]] = {}
    subalgebra = "none"
    weights: Optional[list[int]] = None
    output_format = "text"

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or line[1:-1] not in _SECTIONS:
                _fail(lineno, f"unknown section {line}")
            section = line[1:-1]
            continue
        if section is None:
            _fail(lineno, "entry before any [section]")

        if section == "algebra":
            m = _BRACKET_RE.match(line)
            if m:
                i, j, k = int(m.group(1)), int(m.group(2)), int(m.group(3))
                bracket_entries.append((lineno, i, j, k, _parse_rat(lineno, m.group(4))))
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "dim":
                try:
                    dim = int(value)
                except ValueError:
                    _fail(lineno, f"dim must be an integer, got {value!r}")
            elif key == "names":
                names = value.split()
            else:
                _fail(lineno, f"unknown key {key!r} in [algebra]")
        elif section == "phi":
            key, _, value = line.partition("=")
            key = key.strip()
            if key != "coeffs":
                _fail(lineno, f"unknown key {key!r} in [phi]")
            phi_coeffs = (lineno, value.split())
        elif section == "deformation":
            m = _FTABLE_RE.match(line)
            if m:
                a, b = int(m.group(1)), int(m.group(2))
                if (a, b) in f_table:
                    _fail(lineno, f"duplicate F table entry for ({a},{b})")
                f_table[(a, b)] = (lineno, _parse_rat(lineno, m.group(3)))
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "kind":
                if value not in ("standard", "trivial", "naive_dt"):
                    _fail(lineno, f"unknown deformation kind {value!r}")
                kind = value
            elif key == "F":
                toks = value.split()
                if toks == ["table"]:
                    f_mode = ("table", lineno)
                elif len(toks) == 2 and toks[0] in ("kappa", "constant"):
                    f_mode = (toks[0], _parse_rat(lineno, toks[1]))
                else:
                    _fail(lineno, f"bad F specification {value!r}")
            else:
                _fail(lineno, f"unknown key {key!r} in [deformation]")
        elif section == "extension":
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key != "subalgebra":
                _fail(lineno, f"unknown key {key!r} in [extension]")
            if value not in ("none", "g0prime", "g0doubleprime"):
                _fail(lineno, f"unknown subalgebra choice {value!r}")
            subalgebra = value
        elif section == "run":
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "weights":
                try:
                    weights = [int(tok) for tok in value.split()]
                except ValueError:
                    _fail(lineno, f"weights must be integers, got {value!r}")
            elif key == "format":
                if value not in ("text", "json"):
                    _fail(lineno, f"format must be text or json, got {value!r}")
                output_format = value
            else:
                _fail(lineno, f"unknown key {key!r} in [run]")

    if dim is None:
        raise ConfigError("missing key: [algebra] dim")

    structure = {}
    seen_pairs: dict[tuple[int, int, int], int] = {}
    for lineno, i, j, k, c in bracket_entries:
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            _fail(lineno, f"bracket indices out of range 1..{dim}")
        if i == j:
            _fail(lineno, f"bracket with repeated index ({i},{i})")
        pair_key = (min(i, j), max(i, j), k)
        if pair_key in seen_pairs:
            _fail(
                lineno,
                f"duplicate structure constant for pair ({i},{j}) component {k} "
                f"(first given on line {seen_pairs[pair_key]})",
            )
        seen_pairs[pair_key] = lineno
        structure[(i, j, k)] = c

    try:
        algebra = LieAlgebraSpec(dim, structure, names=names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    violation = validate_jacobi(algebra)
    if violation is not None:
        raise ConfigError(
            f"structure constants violate the Jacobi identity on triple {violation.triple}; "
            f"defect {violation.defect}"
        )

    if phi_coeffs is None:
        phi = OneForm.zero(dim)
    else:
        phi_line, tokens = phi_coeffs
        if len(tokens) != dim:
            _fail(phi_line, f"phi needs exactly {dim} coefficients")
        phi = OneForm.make([_parse_rat(phi_line, tok) for tok in tokens])

    if kind is None:
        raise ConfigError("missing key: [deformation] kind")
    if kind == "trivial":
        if f_mode is None:
            raise ConfigError("trivial deformation needs an F specification")
        if f_mode[0] == "table":
            table = {}
            for (a, b), (lineno, v) in f_table.items():
                mirror = f_table.get((b, a))
                if mirror is not None and mirror[1] != v:
                    _fail(lineno, f"F table not symmetric at ({a},{b})")
                table[(a, b)] = v
                table[(b, a)] = v
            if not phi.is_zero():
                # the bracket reads F(a, b) wherever the wedge a + b + 1 <= dim survives
                missing = next(((a, b) for a in range(dim) for b in range(dim - a) if (a, b) not in table), None)
                if missing is not None:
                    a, b = missing
                    _fail(f_mode[1], f"F table has no entry for degrees ({a},{b}); it needs every a + b <= {dim - 1}")
            fspec = FSpec.from_table(table)
        elif f_mode[0] == "kappa":
            fspec = FSpec.kappa_family(f_mode[1])
        else:
            fspec = FSpec.const(f_mode[1])
        deformation = DeformationSpec.trivial(algebra, phi, fspec)
    else:
        if f_mode is not None or f_table:
            raise ConfigError(f"F may only be specified for the trivial deformation, not {kind}")
        if kind == "standard":
            deformation = DeformationSpec.standard(algebra, phi)
        else:
            deformation = DeformationSpec.naive_dt(algebra, phi)

    return RunConfig(
        algebra=algebra,
        phi=phi,
        deformation=deformation,
        extension=subalgebra,
        weights=weights if weights is not None else [],
        output_format=output_format,
    )
