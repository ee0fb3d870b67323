"""The surface grid-file codec, for both solved surfaces: bytes against the
per-value loop writers in ``oracles``, exact reads in any row order and
block size, rejection of grids that are incomplete or malformed or miss a
header, and the reader's memory bound."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from oracles import full_surface_csv_loop, partial_surface_csv_loop

from regimemm import grid, hjb_full, hjb_partial
from regimemm.model import format_config, table1_spec

TABLES = ("time_grid", "theta", "spread_bid", "spread_ask")


def full_surface():
    return hjb_full.solve_constrained(table1_spec(terminal_cost_c=0.01), n_steps=6)


def partial_surface():
    return hjb_partial.solve(table1_spec(terminal_cost_c=0.01), m_pi=6, m_t=10)


KINDS = {
    "full": (full_surface, hjb_full, full_surface_csv_loop),
    "partial": (partial_surface, hjb_partial, partial_surface_csv_loop),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    make, module, loop_writer = KINDS[request.param]
    surface = make()
    theta = surface.theta.copy()
    bid = surface.spread_bid.copy()
    theta[0, 0, 0] = -0.0
    theta[1, 1, 0] = 1.0 / 3.0
    theta[-1, 2, 1] = 0.1
    bid[2, 3, 1] = -2.0 / 3.0
    bid[1, 2, 0] = 5e-324
    surface = dataclasses.replace(surface, theta=theta, spread_bid=bid)
    assert np.isinf(surface.spread_ask).any()  # stub sentinels on blocked sides
    return surface, module, loop_writer


# the reader's default block size, which holds a test surface's whole body,
# and one of a few rows, so a body spans many blocks
BLOCK_CHARS = (grid._BLOCK_CHARS, 150)


def split(text):
    """(header block including the column row, body rows)."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return "".join(lines[:start]), lines[start:]


def test_writer_matches_loop_reference(kind):
    surface, module, loop_writer = kind
    extra = {"manifest": "0123456789abcdef", "note": "a = b"}
    text = module.surface_to_csv(surface, extra)
    assert text == loop_writer(surface, extra)
    assert "-0," in text and "0.33333333333333331" in text and ",inf" in text


def test_shuffled_rows_read_back_exactly(kind, monkeypatch):
    surface, module, _ = kind
    head, rows = split(module.surface_to_csv(surface, {"manifest": "m"}))
    np.random.default_rng(5).shuffle(rows)
    body = "".join(rows)
    for chars in BLOCK_CHARS:
        monkeypatch.setattr(grid, "_BLOCK_CHARS", chars)
        for text in (head + body, head + body.rstrip("\n")):  # with and without the final newline
            back = module.surface_from_csv(text)
            for name in TABLES:
                np.testing.assert_allclose(getattr(back, name), getattr(surface, name), rtol=0, atol=0)
            assert format_config(back.spec) == format_config(surface.spec)


def test_incomplete_or_malformed_grid_rejected(kind, monkeypatch):
    surface, module, _ = kind
    head, rows = split(module.surface_to_csv(surface))
    short = rows[-1].rsplit(",", 1)[0] + "\n"
    bad = [
        ("rows", head + "".join(rows[:-3])),  # truncated file
        ("node", head + "".join(rows[:-1] + rows[-2:-1])),  # last node replaced by a repeat
        ("columns", head + "".join(rows[:-1] + [short])),  # one short row, in the last block
        ("columns", head + "".join(row.rsplit(",", 1)[0] + "\n" for row in rows)),
        ("inventories", head + "".join(row for row in rows if row.split(",")[1] != "3")),
        ("no rows", head),  # an empty body
        ("no rows", head.rsplit("\n", 2)[0] + "\n"),  # header lines only
    ]
    for chars in BLOCK_CHARS:
        monkeypatch.setattr(grid, "_BLOCK_CHARS", chars)
        for message, text in bad:
            with pytest.raises(ValueError, match=message):
                module.surface_from_csv(text)


def test_missing_third_axis_node_rejected():
    # a whole regime (full) or belief column (partial) gone leaves a complete
    # but smaller grid, which does not match the spec or a uniform belief grid
    for make, module, _ in KINDS.values():
        head, rows = split(module.surface_to_csv(make()))
        body = [row for row in rows if row.split(",")[2] != "1"]
        with pytest.raises(ValueError, match="regimes|beliefs"):
            module.surface_from_csv(head + "".join(body))


@pytest.mark.parametrize(
    "key", ["cfl_max_coeff", "cfl_min_dt", "cfl_max_dt", "cfl_n_steps", "belief_gradient_scale"]
)
def test_partial_reader_requires_every_header_its_writer_writes(key):
    # no default stands in for a missing header: a scale-2 surface must not
    # read back as scale 1, nor its CFL report as nan
    surface = dataclasses.replace(partial_surface(), belief_gradient_scale=2.0)
    text = hjb_partial.surface_to_csv(surface)
    stripped = re.sub(rf"(?m)^# {key} = .*\n", "", text)
    assert len(stripped) < len(text)
    with pytest.raises(ValueError, match=f"no {key} header"):
        hjb_partial.surface_from_csv(stripped)


def test_partial_reader_rejects_a_negative_scale():
    text = hjb_partial.surface_to_csv(partial_surface())
    bad = text.replace("# belief_gradient_scale = 1\n", "# belief_gradient_scale = -7\n")
    assert bad != text
    with pytest.raises(ValueError, match="belief_gradient_scale -7 must be >= 0"):
        hjb_partial.surface_from_csv(bad)


def test_reader_memory_is_bounded_by_the_text():
    # the m_pi = 200 surface of the benchmark's solve workload, about 39 MB
    # of text; the reader parses it in blocks, so beyond the text it holds
    # little more than the parsed rows and the tables
    text = hjb_partial.surface_to_csv(hjb_partial.solve(table1_spec(), m_pi=200))
    tracemalloc.start()
    try:
        hjb_partial.surface_from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * len(text)
