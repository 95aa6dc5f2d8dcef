"""Parser for a restricted MATPOWER-style case-file grammar.

Only the pieces the DC model needs are read: the ``mpc.baseMVA`` scalar and
the ``mpc.bus`` / ``mpc.branch`` matrix blocks.  ``gen``, ``gencost``,
``mpc.version``, function headers and ``%`` comments are skipped.  Consumed
branch columns are fbus, tbus, x and status (0 or 1), and bus columns id and
type; all must be finite numbers, and all but x integers.  Tap ratios and
shunt elements are deliberately ignored (pure series-susceptance DC model).
"""

import math
import os
from dataclasses import dataclass
from importlib import resources

from .errors import CaseSyntaxError, ValidationError

_BLOCKS_READ = ("bus", "branch")


@dataclass(frozen=True)
class BranchRecord:
    """One branch row: endpoints, series reactance (p.u.), in-service flag."""

    from_bus: int
    to_bus: int
    reactance_x: float
    status: bool

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(
                f"branch endpoints coincide (bus {self.from_bus})"
            )


@dataclass(frozen=True)
class GridCase:
    """Validated case data: bus ids, branch list, MVA base, reference bus.

    Bus ids keep their external (possibly non-contiguous) numbering; use
    :meth:`bus_positions` for the dense 0-based re-indexing.  Construction
    is the one place a case is validated.
    """

    base_mva: float
    buses: tuple
    branches: tuple
    reference_bus: int

    def __post_init__(self):
        if not 0 < self.base_mva < math.inf:
            raise ValidationError(f"baseMVA must be positive and finite, got {self.base_mva}")
        if len(self.buses) < 2:
            raise ValidationError(f"need at least 2 buses, got {len(self.buses)}")
        if len(set(self.buses)) != len(self.buses):
            raise ValidationError("duplicate bus ids")
        declared = set(self.buses)
        if self.reference_bus not in declared:
            raise ValidationError(
                f"reference bus {self.reference_bus} is not a declared bus"
            )
        in_service = 0
        for k, br in enumerate(self.branches):
            if br.from_bus not in declared or br.to_bus not in declared:
                raise ValidationError(
                    f"branch {k + 1} references undeclared bus "
                    f"({br.from_bus}-{br.to_bus})"
                )
            if br.status:
                in_service += 1
                if br.reactance_x == 0.0:
                    raise ValidationError(
                        f"branch {k + 1} ({br.from_bus}-{br.to_bus}) is in "
                        "service with zero reactance"
                    )
        if in_service == 0:
            raise ValidationError("no in-service branch")

    def bus_positions(self):
        """Map external bus id -> dense 0-based column position."""
        return {bus: i for i, bus in enumerate(self.buses)}


def _strip_comment(line):
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def _parse_row(tokens, lineno, block, columns):
    """The consumed ``columns`` of one matrix row as finite numbers, the first
    two (bus id and type, or branch endpoints) as ints, which they must be."""
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise CaseSyntaxError(f"bad number in {block} row: {exc}", lineno) from None
    width = columns[-1] + 1
    if len(values) < width:
        raise CaseSyntaxError(
            f"{block} row needs at least {width} columns, got {len(values)}", lineno
        )
    picked = [values[c] for c in columns]
    if not all(math.isfinite(v) for v in picked):
        raise CaseSyntaxError(f"non-finite number in {block} row", lineno)
    for k in (0, 1):
        if not picked[k].is_integer():
            raise CaseSyntaxError(f"{block} column {columns[k] + 1} is not an integer", lineno)
        picked[k] = int(picked[k])
    return picked


def _scan_blocks(text):
    """Yield (name, payload): ('baseMVA', value), or (block, rows) for a
    block in ``_BLOCKS_READ`` with each row as (tokens, lineno).

    A block runs from ``[`` to the first ``]``, over as many lines as it
    takes; ``;`` ends a row, and a row's line is that of the ``;`` or ``]``
    ending it.  Text after the ``]`` on its line is ignored.
    """
    lines = enumerate(text.splitlines(), 1)
    for lineno, raw in lines:
        line = _strip_comment(raw).strip()
        # Function headers, 'end', stray text: skipped.
        if not line.startswith("mpc.") or "=" not in line:
            continue
        name, _, rhs = line[len("mpc."):].partition("=")
        name, rhs = name.strip(), rhs.strip()
        if name == "baseMVA":
            value = rhs.rstrip(";").strip()
            try:
                number = float(value)
            except ValueError:
                raise CaseSyntaxError(
                    f"baseMVA is not a number: {value!r}", lineno
                ) from None
            yield name, number
        elif rhs.startswith("["):
            chunks = [rhs[1:]]
            while "]" not in chunks[-1]:
                more = next(lines, None)
                if more is None:
                    raise CaseSyntaxError(f"unterminated mpc.{name} block", lineno)
                chunks.append(_strip_comment(more[1]))
            if name in _BLOCKS_READ:
                body = "\n".join(chunks)
                rows, end = [], lineno
                for piece in body[:body.index("]")].split(";"):
                    end += piece.count("\n")
                    tokens = piece.split()
                    if tokens:
                        rows.append((tokens, end))
                yield name, rows


def parse_case(text):
    """Parse case-file text into a validated :class:`GridCase`.

    The reference bus is the first bus whose type column equals 3 (slack);
    if none is marked, the first declared bus is used.  Out-of-service
    branches are retained with ``status=False``.  When a block is assigned
    twice, the last assignment wins.
    """
    blocks = dict(_scan_blocks(text))
    for name, what in (("baseMVA", "assignment"), ("bus", "block"), ("branch", "block")):
        if name not in blocks:
            raise ValidationError(f"missing mpc.{name} {what}")

    buses, reference = [], None
    for tokens, lineno in blocks["bus"]:
        bus_id, bus_type = _parse_row(tokens, lineno, "bus", (0, 1))
        buses.append(bus_id)
        if bus_type == 3 and reference is None:
            reference = bus_id
    if reference is None and buses:
        reference = buses[0]

    branches = []
    for tokens, lineno in blocks["branch"]:
        from_bus, to_bus, x, status = _parse_row(tokens, lineno, "branch", (0, 1, 3, 10))
        if status not in (0.0, 1.0):
            raise CaseSyntaxError(f"branch status must be 0 or 1, got {status!r}", lineno)
        branches.append(BranchRecord(from_bus, to_bus, x, status == 1.0))

    return GridCase(
        base_mva=blocks["baseMVA"],
        buses=tuple(buses),
        branches=tuple(branches),
        reference_bus=reference,
    )


def in_service_branches(case):
    """In-service branches in file order; this defines branch indexing."""
    return tuple(br for br in case.branches if br.status)


def render_case(case):
    """Debug renderer for the supported grammar subset.

    ``parse_case(render_case(case)) == case`` holds on the supported subset;
    reactances are printed with 17 significant digits so doubles round-trip.
    """
    out = ["mpc.baseMVA = %.17g;" % case.base_mva, "mpc.bus = ["]
    for bus in case.buses:
        bus_type = 3 if bus == case.reference_bus else 1
        out.append(f"\t{bus}\t{bus_type};")
    out.append("];")
    out.append("mpc.branch = [")
    for br in case.branches:
        out.append(
            "\t%d\t%d\t0\t%.17g\t0\t0\t0\t0\t0\t0\t%d;"
            % (br.from_bus, br.to_bus, br.reactance_x, 1 if br.status else 0)
        )
    out.append("];")
    return "\n".join(out) + "\n"


def bundled_case_text(name):
    """Return the text of a case file shipped with the package.

    ``name`` may be given with or without the ``.m`` suffix.
    """
    if not name.endswith(".m"):
        name = name + ".m"
    ref = resources.files(__package__) / "cases" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return ref.read_text()


def load_case(path_or_name):
    """Load a case from a filesystem path.  A name with no directory part
    that names no file falls back to the bundled case of that name.

    The file must be UTF-8 text, with or without a byte-order mark; other
    bytes raise :class:`CaseSyntaxError`.
    """
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except (FileNotFoundError, IsADirectoryError):
        pass
    except UnicodeDecodeError as exc:
        raise CaseSyntaxError(f"case file is not UTF-8 text (byte {exc.start})") from None
    else:
        return parse_case(text)
    if not os.path.dirname(path_or_name):
        try:
            return parse_case(bundled_case_text(str(path_or_name)))
        except FileNotFoundError:
            pass
    raise FileNotFoundError(f"case file not found: {path_or_name}")
