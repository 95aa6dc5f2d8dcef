import pytest
from hypothesis import given, settings, strategies as st

from stealthdeg import (
    CaseSyntaxError,
    EmptyGridError,
    ValidationError,
    load_case,
    parse_case,
)
from stealthdeg.case_ingest import (
    BranchRecord,
    GridCase,
    bundled_case_text,
    in_service_branches,
    render_case,
)
from conftest import RING_TEXT


def test_minimal_three_bus(ring_case):
    assert ring_case.base_mva == 100.0
    assert ring_case.buses == (1, 2, 3)
    assert ring_case.reference_bus == 1
    assert len(ring_case.branches) == 3
    assert ring_case.branches[0] == BranchRecord(1, 2, 0.1, True)
    assert ring_case.branches[2] == BranchRecord(1, 3, 0.1, True)


def test_parse_is_deterministic():
    assert parse_case(RING_TEXT) == parse_case(RING_TEXT)


@pytest.mark.parametrize(
    "name,buses,branches",
    [("case9", 9, 9), ("case14", 14, 20), ("case30", 30, 41)],
)
def test_bundled_case_counts(name, buses, branches):
    case = load_case(name)
    assert len(case.buses) == buses
    assert len(case.branches) == branches
    assert case.reference_bus == 1
    assert all(br.status for br in case.branches)


def test_zero_reactance_in_service_rejected():
    text = RING_TEXT.replace("1\t2\t0\t0.1", "1\t2\t0\t0")
    with pytest.raises(ValidationError):
        parse_case(text)


def test_zero_reactance_out_of_service_kept():
    # Same row but switched out: legal, retained with status False.
    bad_row = "\t1\t2\t0\t0\t0\t250\t250\t250\t0\t0\t0\t-360\t360;"
    text = RING_TEXT.replace(
        "\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;", bad_row
    )
    case = parse_case(text)
    assert case.branches[0].status is False
    assert len(in_service_branches(case)) == 2


def test_dangling_endpoint_rejected():
    text = RING_TEXT.replace("\t2\t3\t0", "\t2\t7\t0")
    with pytest.raises(ValidationError, match="undeclared"):
        parse_case(text)


@pytest.mark.parametrize("block", ["mpc.baseMVA", "mpc.bus", "mpc.branch"])
def test_missing_block_rejected(block):
    lines = []
    skipping = False
    for line in RING_TEXT.splitlines():
        if line.startswith(block):
            skipping = True
        if not skipping:
            lines.append(line)
        if skipping and (line.endswith("];") or line.endswith(";")):
            skipping = False
    with pytest.raises(ValidationError, match="missing"):
        parse_case("\n".join(lines))


def test_bad_number_reports_line():
    text = RING_TEXT.replace("\t2\t3\t0\t0.1", "\t2\tbogus\t0\t0.1")
    with pytest.raises(CaseSyntaxError, match="line 9"):
        parse_case(text)


def test_short_branch_row_rejected():
    text = RING_TEXT.replace(
        "\t1\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;", "\t1\t3\t0.1;"
    )
    with pytest.raises(CaseSyntaxError, match="11 columns"):
        parse_case(text)


def test_unterminated_block_rejected():
    text = RING_TEXT.rsplit("];", 1)[0]  # drop the branch block terminator
    with pytest.raises(CaseSyntaxError, match="unterminated"):
        parse_case(text)


def test_comments_and_wrapped_rows():
    text = (
        "% leading comment\n"
        "function mpc = tiny\n"
        "mpc.version = '2';\n"
        "mpc.baseMVA = 50; % trailing comment\n"
        "mpc.bus = [\n"
        " 10 1 0 0 0 0 1 1 0 345 1 1.1 0.9;\n"
        " 20 3 0 0\n"
        "    0 0 1 1 0 345 1 1.1 0.9; % row wrapped over two lines\n"
        "];\n"
        "mpc.gen = [ 20 1 2 3 4 5 6 7 8 9; ];\n"
        "mpc.branch = [ 10 20 0 0.25 0 0 0 0 0 0 1; ];\n"
    )
    case = parse_case(text)
    assert case.base_mva == 50.0
    assert case.buses == (10, 20)
    assert case.reference_bus == 20  # type-3 row wins over file order
    assert case.branches == (BranchRecord(10, 20, 0.25, True),)


def test_reference_defaults_to_first_bus():
    text = RING_TEXT.replace(
        "\t1\t3\t0\t0\t0\t0\t1\t1\t0\t345", "\t1\t1\t0\t0\t0\t0\t1\t1\t0\t345"
    )
    assert parse_case(text).reference_bus == 1


def test_noncontiguous_bus_ids():
    text = (
        "mpc.baseMVA = 100;\n"
        "mpc.bus = [\n"
        " 101 3 0 0 0 0 1 1 0 345 1 1.1 0.9;\n"
        " 202 1 0 0 0 0 1 1 0 345 1 1.1 0.9;\n"
        " 303 1 0 0 0 0 1 1 0 345 1 1.1 0.9;\n"
        "];\n"
        "mpc.branch = [\n"
        " 101 202 0 0.1 0 0 0 0 0 0 1;\n"
        " 202 303 0 0.1 0 0 0 0 0 0 1;\n"
        "];\n"
    )
    case = parse_case(text)
    assert case.buses == (101, 202, 303)
    assert case.bus_positions() == {101: 0, 202: 1, 303: 2}


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        BranchRecord(4, 4, 0.1, True)


def test_too_few_buses_rejected():
    with pytest.raises(ValidationError, match="at least 2"):
        GridCase(base_mva=100.0, buses=(1,), branches=(), reference_bus=1)


def test_in_service_filter_preserves_order(ring_case):
    text = RING_TEXT.replace(
        "\t2\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t1", "\t2\t3\t0\t0.1\t0\t250\t250\t250\t0\t0\t0"
    )
    case = parse_case(text)
    kept = in_service_branches(case)
    assert [(br.from_bus, br.to_bus) for br in kept] == [(1, 2), (1, 3)]
    # All in service: identity.
    assert in_service_branches(ring_case) == ring_case.branches


def test_all_out_of_service_rejected():
    text = RING_TEXT.replace("\t0\t0\t1\t-360", "\t0\t0\t0\t-360")
    with pytest.raises((EmptyGridError, ValidationError)):
        in_service_branches(parse_case(text))


@pytest.mark.parametrize("name", ["case9", "case14", "case30"])
def test_render_round_trip_bundled(name):
    case = load_case(name)
    assert parse_case(render_case(case)) == case


def test_render_round_trip_with_outage(ring_case):
    case = GridCase(
        base_mva=12.5,
        buses=(5, 9, 11),
        branches=(
            BranchRecord(5, 9, 0.031415926535897931, True),
            BranchRecord(9, 11, -0.25, False),
            BranchRecord(5, 11, 1e-3, True),
        ),
        reference_bus=9,
    )
    assert parse_case(render_case(case)) == case


def test_bundled_name_lookup_missing():
    with pytest.raises(FileNotFoundError):
        bundled_case_text("case999")
    with pytest.raises(FileNotFoundError, match="case999"):
        load_case("case999")


@st.composite
def grid_cases(draw):
    """Valid GridCases: bus ids in [1, 2^31), finite reactances, >= 1 in service."""
    buses = draw(st.lists(st.integers(1, 2 ** 31 - 1), unique=True, min_size=2, max_size=8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    branches = []
    for k in range(draw(st.integers(1, 10))):
        from_bus, to_bus = draw(st.lists(st.sampled_from(buses), unique=True,
                                         min_size=2, max_size=2))
        status = k == 0 or draw(st.booleans())
        x = draw(finite.filter(lambda v: v != 0.0) if status else finite)
        branches.append(BranchRecord(from_bus, to_bus, x, status))
    return GridCase(
        base_mva=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        buses=tuple(buses),
        branches=tuple(branches),
        reference_bus=draw(st.sampled_from(buses)),
    )


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=grid_cases())
def test_render_round_trip_property(case):
    back = parse_case(render_case(case))
    assert back == case
    assert repr(back) == repr(case)  # -0.0 and every float bit survive too
