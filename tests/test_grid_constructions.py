import random
from itertools import islice, product

import pytest

from helpers import full_board_problems, gamma_sweep_oracle, repair_corners_full_recheck
from swapsets import (
    ContractError,
    TokenBoard,
    domination_number,
    gamma_grid_dp,
    grid_density_report,
    grid_graph,
    grid_swap_construct,
    p3_strip_swap,
    perfect_dom_member,
    verify_certificate,
)
from swapsets import grid_constructions
from swapsets.grid_constructions import GridSpec, _base_board, _board_problems


class TestPerfectDomination:
    @pytest.mark.parametrize("t", range(5))
    def test_exactly_once_window(self, t):
        for x in range(-8, 9):
            for y in range(-8, 9):
                hits = sum(perfect_dom_member(a, b, t)
                           for a, b in ((x, y), (x - 1, y), (x + 1, y),
                                        (x, y - 1), (x, y + 1)))
                assert hits == 1

    def test_shifts_are_distinct(self):
        rows = [tuple(perfect_dom_member(x, 0, t) for x in range(5)) for t in range(5)]
        assert len(set(rows)) == 5

    def test_t_range_enforced(self):
        with pytest.raises(ContractError):
            perfect_dom_member(0, 0, 5)


class TestGridSpec:
    def test_vertex_ids_match_grid_graph(self):
        spec = GridSpec(4, 3)
        g = grid_graph(4, 3)
        assert spec.vertex(1, 1) == 0
        assert spec.vertex(2, 1) == 3
        assert g.has_edge(spec.vertex(1, 1), spec.vertex(1, 2))
        assert g.has_edge(spec.vertex(1, 1), spec.vertex(2, 1))

    def test_bounds(self):
        spec = GridSpec(4, 3)
        assert spec.in_bounds(4, 3) and not spec.in_bounds(5, 1)
        with pytest.raises(ContractError):
            spec.vertex(0, 1)


class TestTokenBoard:
    def test_rejects_overlap(self):
        with pytest.raises(ContractError):
            TokenBoard(3, 3, frozenset({(1, 1)}), frozenset({(1, 1)}))

    def test_rejects_outside(self):
        with pytest.raises(ContractError):
            TokenBoard(3, 3, frozenset({(4, 1)}), frozenset())

    def test_render_shape(self):
        board = TokenBoard(3, 2, frozenset({(1, 1)}), frozenset({(3, 2)}))
        assert board.render() == "..W\nB.."


class TestGridConstruction:
    def test_documented_sizes(self):
        for (m, n), size in (((16, 12), 52), ((8, 8), 20), ((30, 9), 71)):
            g, cert, board = grid_swap_construct(m, n)
            assert cert.size() == size
            assert verify_certificate(g, cert)
            assert len(board.black) + len(board.white) == size

    def test_respects_density_bound(self):
        for m, n in ((8, 8), (9, 8), (12, 10), (14, 14), (20, 8)):
            _, cert, _ = grid_swap_construct(m, n)
            assert cert.size() <= ((n + 2) * (m + 3)) // 5

    def test_precondition(self):
        with pytest.raises(ContractError):
            grid_swap_construct(7, 7)
        with pytest.raises(ContractError):
            grid_swap_construct(8, 9)

    def test_windowed_repair_matches_full_recheck(self):
        for n in range(8, 21):
            for m in range(n, 21):
                _, cert, board = grid_swap_construct(m, n)
                cap = (n + 2) * (m + 3) // 5
                black, white = repair_corners_full_recheck(m, n, *_base_board(m, n), cap)
                assert (board.black, board.white) == (black, white), (m, n)
                spec = GridSpec(m, n)
                assert cert.d == {spec.vertex(*c) for c in black | white}

    def test_board_problems_match_full_board_oracle(self):
        # random token layouts, mostly invalid: moves off the board, onto
        # other tokens and onto one another's targets, and gaps
        rng = random.Random(8)
        for _ in range(400):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.random()
            black, white = set(), set()
            for cell in product(range(1, m + 1), range(1, n + 1)):
                x = rng.random()
                if x < density / 2:
                    black.add(cell)
                elif x < density:
                    white.add(cell)
            full = full_board_problems(m, n, black, white)
            assert _board_problems(m, n, black, white, (1, m, 1, n)) == full
            for _ in range(3):
                lo_i = rng.randint(1, m)
                hi_i = rng.randint(lo_i, m)
                lo_j = rng.randint(1, n)
                hi_j = rng.randint(lo_j, n)
                window = (lo_i, hi_i, lo_j, hi_j)
                expected = {(i, j) for i, j in full if lo_i <= i <= hi_i and lo_j <= j <= hi_j}
                assert _board_problems(m, n, black, white, window) == expected, window

    def test_repair_checks_only_corner_windows(self, monkeypatch):
        # the whole board is checked once, as the certificate it becomes
        sides = []
        real = grid_constructions._board_problems

        def recording(m, n, black, white, window=None):
            lo_i, hi_i, lo_j, hi_j = window or (1, m, 1, n)
            sides.append((hi_i - lo_i + 1, hi_j - lo_j + 1))
            return real(m, n, black, white, window)

        monkeypatch.setattr(grid_constructions, "_board_problems", recording)
        grid_swap_construct(60, 60)
        assert sides and all(a <= 9 and b <= 9 for a, b in sides), sides

    def test_board_matches_certificate(self):
        g, cert, board = grid_swap_construct(10, 9)
        spec = GridSpec(10, 9)
        d_from_board = {spec.vertex(i, j) for i, j in board.black}
        d_from_board |= {spec.vertex(i, j) for i, j in board.white}
        assert d_from_board == set(cert.d)


class TestP3Strips:
    def test_sizes(self):
        for k in range(3, 11):
            g, cert = p3_strip_swap(k)
            assert g.n == 3 * (4 * k + 1)
            assert verify_certificate(g, cert)
            assert cert.size() == 3 * k + 2

    def test_beats_domination_number_by_one(self):
        for k in (3, 4, 5):
            _, cert = p3_strip_swap(k)
            assert cert.size() == gamma_grid_dp(3, 4 * k + 1) + 1

    def test_precondition(self):
        with pytest.raises(ContractError):
            p3_strip_swap(2)


class TestGammaGridDp:
    @pytest.mark.parametrize("rows,cols,gamma", [
        (1, 1, 1),
        (1, 4, 2),
        (1, 7, 3),
        (2, 4, 3),
        (2, 5, 3),
        (3, 4, 4),
        (3, 13, 10),
        (4, 4, 4),
        (5, 5, 7),
    ])
    def test_known_values(self, rows, cols, gamma):
        assert gamma_grid_dp(rows, cols) == gamma

    def test_matches_branch_and_bound(self):
        for rows in range(1, 9):
            for cols in range(1, 30 // rows + 1):
                assert gamma_grid_dp(rows, cols) == domination_number(grid_graph(cols, rows))

    def test_strip_formula(self):
        for k in range(1, 9):
            assert gamma_grid_dp(3, 4 * k + 1) == 3 * k + 1

    def test_row_cap(self):
        with pytest.raises(ContractError):
            gamma_grid_dp(9, 4)

    def test_matches_column_sweep_oracle(self):
        for rows in range(1, 9):
            expected = list(islice(gamma_sweep_oracle(rows), 20))
            assert list(islice(grid_constructions._gamma_sweep(rows), 20)) == expected, rows
            assert gamma_grid_dp(rows, 20) == expected[-1]


class TestDensityReport:
    def test_shape_and_bound_column(self):
        report = grid_density_report(10)
        lines = report.to_tsv().strip().split("\n")
        header = lines[0].split("\t")
        assert header[:3] == ["m", "n", "d_size"]
        assert len(lines) == len(report.rows) + 1
        for row in report.rows:
            assert row.d_size <= row.bound
            assert row.bound == ((row.n + 2) * (row.m + 3)) // 5

    def test_gamma_only_when_cheap(self):
        report = grid_density_report(9)
        for row in report.rows:
            if row.n <= 8:
                assert row.gamma is not None
                assert row.gamma <= row.d_size

    def test_deterministic(self):
        assert grid_density_report(9).to_tsv() == grid_density_report(9).to_tsv()
