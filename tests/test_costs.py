import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_scenario, random_sizes, random_structure, uniform_sizes
from navstream.adapters import LfGridSpec, build_lf_scenario, lifetime_defaults
from navstream.baselines import _Lister, inf_buffer_cost
from navstream.costs import (
    CostTables,
    SizeTable,
    Structure,
    all_i_structure,
    grid_sizes,
    load_sizes,
    load_structure,
    save_sizes,
    save_structure,
    storage_cost,
    zero_hop_overhead,
)
from navstream.errors import (
    CorruptTableError,
    InfeasibleStructureError,
    InvalidInputError,
)
from navstream.evaluate import eval_fixed, eval_flexible
from navstream.landmarks import landmark_structure
from navstream.oracle import simulate_sessions
from navstream.scenario import Scenario, build_lifetime_tail


def _sizes(n=4, p=1.0):
    return uniform_sizes(n, p)


# --- size table -------------------------------------------------------------

def test_size_table_lookups():
    sz = _sizes()
    assert sz.i(0) == 11.0
    assert sz.m(3) == 3.5
    assert sz.p(0, 1) == 1.0


def test_size_table_rejects_self_prediction():
    with pytest.raises(InvalidInputError):
        _sizes().p(1, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2.0])
@pytest.mark.parametrize(
    "kind, index, what",
    [("I", 1, "MDU 1"), ("M", 2, "MDU 2"), ("P", (0, 2), "pair (0, 2)")],
    ids=["I", "M", "P"],
)
def test_size_table_refuses_corrupt_entries_when_built(kind, index, what, bad):
    tables = {"I": np.full(3, 11.0), "M": np.full(3, 3.5), "P": np.ones((3, 3))}
    tables[kind][index] = bad
    with pytest.raises(CorruptTableError, match=re.escape(f"bad {kind} size for {what}")):
        SizeTable(tables["I"], tables["M"], tables["P"])


def _with_diagonal(sizes, diagonal):
    p = sizes.p_size.copy()
    np.fill_diagonal(p, diagonal)
    return SizeTable(sizes.i_size, sizes.m_size, p)


@pytest.mark.parametrize("diagonal", [np.nan, 0.0, -1.0])
def test_size_table_diagonal_may_hold_anything(diagonal):
    """The table accepts any P diagonal, and landmark planning, whose
    vectorised phi spans it, gives the same partitions whatever it holds."""
    p = np.ones((2, 2))
    np.fill_diagonal(p, diagonal)
    sz = SizeTable([11.0, 11.0], [3.5, 3.5], p)
    with pytest.raises(InvalidInputError):
        sz.p(1, 1)
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=8, cols=8))
    sc = Scenario(graph, nav, build_lifetime_tail(*lifetime_defaults(81)))
    filled = _with_diagonal(sizes, diagonal)
    for lam, landmarks in ((2.0, 1), (5.0, 3)):
        want = landmark_structure(sc, sizes, lam)
        assert len(want.landmarks) == landmarks
        assert landmark_structure(sc, filled, lam) == want


def test_size_table_shape_mismatch():
    with pytest.raises(InvalidInputError):
        SizeTable([1.0, 2.0], [1.0], np.ones((2, 2)))


def test_grid_sizes_chebyshev_growth():
    sz = grid_sizes(3, 3, p_unit=2.0)
    # adjacent (Chebyshev 1): 2*(0.2+0.8) = 2; diagonal across (dist 2): 3.6
    assert sz.p(0, 1) == pytest.approx(2.0)
    assert sz.p(0, 8) == pytest.approx(2.0 * (0.2 + 0.8 * 2))
    assert sz.i(0) == pytest.approx(22.0)
    assert sz.m(0) == pytest.approx(7.0)


def test_grid_sizes_symmetry():
    sz = grid_sizes(4, 5)
    for i in range(20):
        for j in range(20):
            if i != j:
                assert sz.p(i, j) == sz.p(j, i)


# --- storage ----------------------------------------------------------------

def test_storage_empty_structure():
    st = Structure(i_set=frozenset(), p_edges=frozenset())
    assert storage_cost(st, _sizes()) == 0.0


def test_storage_two_term_sum():
    st = Structure(i_set=frozenset({0}), p_edges=frozenset({(0, 1)}))
    assert storage_cost(st, _sizes()) == pytest.approx(12.0)


def test_storage_landmark_over_four_members():
    st = Structure(
        i_set=frozenset({0}),
        p_edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
    )
    assert storage_cost(st, _sizes(5)) == pytest.approx(15.0)


def test_storage_strictly_increasing_under_edge_addition():
    rng = np.random.default_rng(5)
    sz = random_sizes(rng, 5)
    st = random_structure(rng, 5)
    for i in range(5):
        for j in range(5):
            if i != j and (i, j) not in st.p_edges:
                assert storage_cost(st.with_edge((i, j)), sz) > storage_cost(st, sz)


# --- per-request overheads --------------------------------------------------

def test_zero_hop_prefers_bare_i():
    sz = _sizes(3)
    st = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1)}))
    # bare I = 11 beats combo 11 + 1 + 3.5 = 15.5
    assert zero_hop_overhead(st, sz, 1) == pytest.approx(11.0)


def test_zero_hop_landmark_combo():
    sz = _sizes(3)
    st = Structure(i_set=frozenset({0}), p_edges=frozenset({(0, 1), (0, 2)}))
    assert zero_hop_overhead(st, sz, 2) == pytest.approx(15.5)


def test_zero_hop_infeasible():
    st = Structure(i_set=frozenset({0}), p_edges=frozenset())
    with pytest.raises(InfeasibleStructureError):
        zero_hop_overhead(st, _sizes(2), 1)


def test_cost_tables_sources_list_all_routes():
    sz = _sizes(3)
    st = Structure(
        i_set=frozenset({0, 2}), p_edges=frozenset({(0, 1), (2, 1)})
    )
    assert CostTables(st, sz, 3).source_bits[:, 1].tolist() == [15.5, math.inf, 15.5]
    # the infinite buffer's source slots for MDU 1, by ascending l, each
    # sending l and 1
    lister = _Lister(random_scenario(np.random.default_rng(3), 3, 2), sz, st)
    assert lister.src_bits[1].tolist() == [15.5, 15.5]
    assert lister.add[1, 1:3, 0].tolist() == [0b011, 0b110]


@pytest.mark.parametrize(
    "i_set, p_edges, named",
    [
        (range(7), (), "I-MDU 6"),
        (range(6), ((-1, 0),), "P-edge (-1, 0)"),  # once "predicted" MDU 0
        (range(6), ((5, 0), (0, 99)), "P-edge (0, 99)"),  # once an IndexError
    ],
    ids=["i-mdu-past-n", "edge-from-minus-1", "edge-to-99"],
)
def test_requests_are_not_priced_on_an_out_of_range_structure(i_set, p_edges, named):
    """Every path that prices requests refuses an I-MDU or a P-edge end
    outside [0, n), naming it, and not only the CLI's `Structure.validate`."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=2, cols=3))
    sc = Scenario(graph, nav, build_lifetime_tail(1.0, 2))
    policy = eval_flexible(sc, sizes, all_i_structure(6)).policy
    bad = Structure(i_set=frozenset(i_set), p_edges=frozenset(p_edges))
    for price in (
        lambda: eval_fixed(sc, sizes, bad),
        lambda: eval_flexible(sc, sizes, bad),
        lambda: inf_buffer_cost(sc, sizes, bad),
        lambda: simulate_sessions(sc, sizes, bad, policy, n_sessions=10, seed=0),
    ):
        with pytest.raises(InvalidInputError) as refused:
            price()
        assert str(refused.value) == f"{named} is outside [0, 6)"


@pytest.mark.parametrize("diagonal", [np.nan, -20.0])
def test_requests_are_not_priced_on_a_self_edge(diagonal):
    """A self-edge is refused, naming the least one, by storage and by the
    fixed, flexible and infinite buffers, whatever the P diagonal holds:
    nothing predicts an MDU from itself.  It was once priced from the
    diagonal, as nan bits, or as -27.08 under the flexible buffer."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=2, cols=3))
    sc = Scenario(graph, nav, build_lifetime_tail(1.0, 2))
    sizes = _with_diagonal(sizes, diagonal)
    bad = landmark_structure(sc, sizes, 0.5).with_edges({(5, 5), (4, 4)})
    for price in (
        lambda: storage_cost(bad, sizes),
        lambda: eval_fixed(sc, sizes, bad),
        lambda: eval_flexible(sc, sizes, bad),
        lambda: inf_buffer_cost(sc, sizes, bad),
    ):
        with pytest.raises(InvalidInputError) as refused:
            price()
        assert str(refused.value) == "P-edge (4, 4) is a self-edge"


@pytest.mark.parametrize(
    "i_set, p_edges, named",
    [
        ({-1, 0}, {(-1, 0)}, "I-MDU -1"),  # once 23.0 bits, read from MDU 5
        (range(6), {(0, 99)}, "P-edge (0, 99)"),  # once an IndexError
    ],
    ids=["i-mdu-minus-1", "edge-to-99"],
)
def test_storage_cost_refuses_an_out_of_range_structure(i_set, p_edges, named):
    bad = Structure(i_set=frozenset(i_set), p_edges=frozenset(p_edges))
    with pytest.raises(InvalidInputError) as refused:
        storage_cost(bad, uniform_sizes(6))
    assert str(refused.value) == f"{named} is outside [0, 6)"


def test_zero_hop_never_increases_with_edges():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sz = random_sizes(rng, 5)
        st = random_structure(rng, 5)
        i = int(rng.integers(5))
        j = (i + int(rng.integers(1, 5))) % 5
        extra = st.with_edge((i, j))
        for j in range(5):
            assert zero_hop_overhead(extra, sz, j) <= zero_hop_overhead(st, sz, j)


# --- structure invariants and files ----------------------------------------

def test_structure_validate_catches_problems():
    st = Structure(i_set=frozenset({7}), p_edges=frozenset({(1, 1)}))
    problems = st.validate(3)
    assert any("out of range" in p for p in problems)
    assert any("self-edge" in p for p in problems)


def test_without_edge_drops_broken_landmarks():
    from navstream.costs import LandmarkGroup

    st = Structure(
        i_set=frozenset({0}),
        p_edges=frozenset({(0, 1), (0, 2)}),
        landmarks=(LandmarkGroup(landmark=0, members=frozenset({0, 1, 2})),),
    )
    assert st.validate(3) == []
    dropped = st.without_edge((0, 1))
    assert dropped.landmarks is None


def test_structure_round_trip(tmp_path):
    from navstream.costs import LandmarkGroup

    st = Structure(
        i_set=frozenset({0, 2}),
        p_edges=frozenset({(0, 1), (2, 1), (0, 2), (2, 0)}),
        landmarks=(
            LandmarkGroup(landmark=0, members=frozenset({0, 1})),
            LandmarkGroup(landmark=2, members=frozenset({2})),
        ),
    )
    path = tmp_path / "structure.json"
    save_structure(st, path)
    assert load_structure(path) == st


def test_structure_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text('{"i_set": [0], "p_edges": [], "bogus": 1}')
    with pytest.raises(InvalidInputError, match="unknown"):
        load_structure(path)


def test_sizes_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    sz = random_sizes(rng, 4)
    path = tmp_path / "sizes.csv"
    save_sizes(sz, path)
    back = load_sizes(path)
    assert np.array_equal(back.i_size, sz.i_size)
    assert np.array_equal(back.m_size, sz.m_size)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert back.p_size[i, j] == sz.p_size[i, j]


def test_sizes_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "sizes.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidInputError):
        load_sizes(path)


def test_sizes_csv_refuses_a_short_table_before_allocating_it(tmp_path):
    path = tmp_path / "sizes.csv"
    path.write_text("kind,i,j,bits\nI,3000,,11\n")  # a 3001 x 3001 P table is 72 MB
    tracemalloc.start()
    try:
        with pytest.raises(CorruptTableError, match="1 rows, .* up to MDU 3000"):
            load_sizes(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sizes_csv_rejects_incomplete_table(tmp_path):
    path = tmp_path / "sizes.csv"
    path.write_text("kind,i,j,bits\nI,0,,11.0\nI,1,,11.0\n")
    with pytest.raises(CorruptTableError):
        load_sizes(path)
