"""Color classes: their order under set/clear, side errors, and range-checked reads."""

import random

import pytest

from dyncolor.baseline import SlottedColorState
from dyncolor.colors import BLANK, ColorState
from dyncolor.engine import Engine
from dyncolor.errors import DynColorError, InvariantViolation, OutOfRange


class SwapWithLastModel:
    """Classes as the order rule states it: join at the end; on leaving,
    the class's last vertex moves into the leaver's place."""

    def __init__(self, palette):
        self.classes = {side: [[] for _ in range(palette)] for side in ("L", "L_D")}
        self.at = {}  # v -> (side, color)

    def clear(self, v):
        if v in self.at:
            side, c = self.at.pop(v)
            lst = self.classes[side][c]
            i = lst.index(v)
            lst[i] = lst[-1]
            lst.pop()

    def set(self, v, side, c):
        self.clear(v)
        self.classes[side][c].append(v)
        self.at[v] = (side, c)


@pytest.mark.parametrize("state", [ColorState, SlottedColorState])
def test_class_order_follows_swap_with_last(state):
    n, palette = 24, 5
    cs = state(n, palette)
    model = SwapWithLastModel(palette)
    side_of = {v: "L_D" if v % 3 == 0 else "L" for v in range(n)}
    rng = random.Random(7)
    for step in range(3000):
        v = rng.randrange(n)
        side = side_of[v]
        if rng.random() < 0.3:
            clear = cs.clear_dense if side == "L_D" else cs.clear_sparse
            assert clear(v) == (model.at[v][1] if v in model.at else BLANK)
            model.clear(v)
        else:
            c = rng.randrange(palette)
            (cs.set_dense if side == "L_D" else cs.set_sparse)(v, c)
            model.set(v, side, c)
        assert cs.L == model.classes["L"] and cs.L_D == model.classes["L_D"], step
    assert model.at  # the script left some vertices colored
    assert cs.of == [model.at[v][1] if v in model.at else BLANK for v in range(n)]


@pytest.mark.parametrize(
    "listed, act, name",
    [
        ("dense", "clear_sparse", "L"),
        ("sparse", "clear_dense", "L_D"),
        ("dense", "set_sparse", "L"),
        ("sparse", "set_dense", "L_D"),
    ],
)
def test_wrong_side_removal_raises(listed, act, name):
    cs = ColorState(6, 3)
    (cs.set_dense if listed == "dense" else cs.set_sparse)(4, 2)
    before = ([list(x) for x in cs.L], [list(x) for x in cs.L_D], list(cs.of))
    method = getattr(cs, act)
    with pytest.raises(InvariantViolation, match=rf"vertex 4 holds color 2 but is not in {name}\(2\)"):
        method(4) if act.startswith("clear") else method(4, 0)
    assert ([list(x) for x in cs.L], [list(x) for x in cs.L_D], list(cs.of)) == before


def test_reads_reject_out_of_range():
    e = Engine(8, 3)  # palette 4
    assert issubclass(OutOfRange, DynColorError) and issubclass(OutOfRange, IndexError)
    for v in (-1, 8):
        with pytest.raises(OutOfRange, match=f"vertex {v} "):
            e.color_of(v)
    view = e.coloring_view()
    for c in (-1, 4):
        with pytest.raises(OutOfRange, match=f"color {c} "):
            view.occupant_count(c)
        with pytest.raises(OutOfRange, match=f"color {c} "):
            view.occupant(c, 0)
    c = e.color_of(0)
    count = view.occupant_count(c)
    assert [view.occupant(c, i) for i in range(count)] == e.colors.L[c] + e.colors.L_D[c]
    for i in (-1, count):
        with pytest.raises(IndexError, match=f"occupant {i} of color {c} "):
            view.occupant(c, i)
    assert view.color_of(7) == e.colors.of[7]
