"""Parser for a restricted MATPOWER-style case-file grammar.

Only the pieces the DC model needs are read: the ``mpc.baseMVA`` scalar and
the ``mpc.bus`` / ``mpc.branch`` matrix blocks.  ``gen``, ``gencost``,
``mpc.version``, function headers and ``%`` comments are skipped.  Consumed
branch columns are fbus, tbus, x and status, and bus columns id and type;
each must be a finite number.  Tap ratios and shunt elements are
deliberately ignored (pure series-susceptance DC model).
"""

import math
from dataclasses import dataclass
from importlib import resources

from .errors import CaseSyntaxError, EmptyGridError, ValidationError

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
    :meth:`bus_positions` for the dense 0-based re-indexing.
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
    """The consumed ``columns`` of one matrix row, each a finite number."""
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
    return picked


def _scan_blocks(text):
    """Yield (kind, payload, lineno): ('basemva', value) or (block, rows)."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = _strip_comment(lines[i]).strip()
        i += 1
        if not line:
            continue
        if line.startswith("mpc.") and "=" in line:
            name = line[len("mpc."):line.index("=")].strip()
            rhs = line[line.index("=") + 1:].strip()
            if name == "baseMVA":
                value = rhs.rstrip(";").strip()
                try:
                    number = float(value)
                except ValueError:
                    raise CaseSyntaxError(
                        f"baseMVA is not a number: {value!r}", lineno
                    ) from None
                yield "basemva", number, lineno
                continue
            if rhs.startswith("["):
                # Matrix block, possibly spanning lines; ';' terminates a row.
                rows, tokens = [], []
                chunk, start = rhs[1:], lineno
                while True:
                    closed = "]" in chunk
                    body = chunk[:chunk.index("]")] if closed else chunk
                    pieces = body.split(";")
                    for piece in pieces[:-1]:
                        tokens.extend(piece.split())
                        if tokens:
                            rows.append((tokens, lineno))
                        tokens = []
                    tokens.extend(pieces[-1].split())
                    if closed:
                        if tokens:
                            rows.append((tokens, lineno))
                        break
                    if i >= len(lines):
                        raise CaseSyntaxError(
                            f"unterminated mpc.{name} block", start
                        )
                    lineno = i + 1
                    chunk = _strip_comment(lines[i])
                    i += 1
                if name in _BLOCKS_READ:
                    yield name, rows, start
                continue
            # Scalar/string assignment we do not consume (e.g. mpc.version).
            continue
        # Function headers, 'end', stray text: skipped.
    return


def parse_case(text):
    """Parse case-file text into a validated :class:`GridCase`.

    The reference bus is the first bus whose type column equals 3 (slack);
    if none is marked, the first declared bus is used.  Out-of-service
    branches are retained with ``status=False``.
    """
    base_mva = None
    bus_rows = branch_rows = None
    for kind, payload, lineno in _scan_blocks(text):
        if kind == "basemva":
            base_mva = payload
        elif kind == "bus":
            bus_rows = payload
        elif kind == "branch":
            branch_rows = payload

    if base_mva is None:
        raise ValidationError("missing mpc.baseMVA assignment")
    if bus_rows is None:
        raise ValidationError("missing mpc.bus block")
    if branch_rows is None:
        raise ValidationError("missing mpc.branch block")

    buses, reference = [], None
    for tokens, lineno in bus_rows:
        bus_id, bus_type = (int(v) for v in _parse_row(tokens, lineno, "bus", (0, 1)))
        buses.append(bus_id)
        if bus_type == 3 and reference is None:
            reference = bus_id
    if reference is None and buses:
        reference = buses[0]

    branches = []
    for tokens, lineno in branch_rows:
        from_bus, to_bus, x, status = _parse_row(tokens, lineno, "branch", (0, 1, 3, 10))
        branches.append(
            BranchRecord(
                from_bus=int(from_bus),
                to_bus=int(to_bus),
                reactance_x=x,
                status=status != 0,
            )
        )

    return GridCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        reference_bus=reference,
    )


def in_service_branches(case):
    """In-service branches in file order; this defines branch indexing."""
    kept = tuple(br for br in case.branches if br.status)
    if not kept:
        raise EmptyGridError("no in-service branch")
    return kept


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
    """Load a case from a filesystem path, else fall back to a bundled case.

    The file must be UTF-8 text; other bytes raise :class:`CaseSyntaxError`.
    """
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (FileNotFoundError, IsADirectoryError):
        pass
    except UnicodeDecodeError as exc:
        raise CaseSyntaxError(f"case file is not UTF-8 text (byte {exc.start})") from None
    else:
        return parse_case(text)
    base = str(path_or_name).rsplit("/", 1)[-1]
    try:
        return parse_case(bundled_case_text(base))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"case file not found: {path_or_name}"
        ) from None
