"""Rendering: element counts, marker classes, determinism, 3-d projection."""

import numpy as np
import pytest

from minnet.io import SCHEMA_VERSION, IoError, ResultFile, parse_result, serialize_result
from minnet.steiner import solve_exact
from minnet.svg import render_svg

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _tree_result(terminals: np.ndarray) -> ResultFile:
    tree = solve_exact(terminals).tree
    return ResultFile(
        SCHEMA_VERSION,
        "sha256:" + "0" * 64,
        "steiner",
        terminals.shape[1],
        tree.length,
        tree.coords(),
        list(tree.topology.edges),
        n_terminals=terminals.shape[0],
    )


def _mdm_result() -> ResultFile:
    return ResultFile(
        SCHEMA_VERSION,
        "sha256:" + "0" * 64,
        "mdm",
        2,
        2.0,
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]),
        [(0, 1), (1, 2)],
        r=0.75,
        report={"energetic": [[0.5, 0.0], [2.0, 0.5]]},
    )


class TestTreeRendering:
    def test_two_terminals_two_dots_one_path(self):
        svg = render_svg(_tree_result(np.array([[0.0, 0.0], [3.0, 1.0]])))
        assert svg.count("<circle") == 2
        assert svg.count("<path") == 1

    def test_square_dot_and_edge_counts(self):
        svg = render_svg(_tree_result(SQUARE))
        assert svg.count('class="terminal"') == 4
        assert svg.count('class="branch"') == 2
        assert svg.count('class="edge"') == 5
        assert svg.count("<circle") == 6
        assert svg.count("<path") == 5

    def test_terminal_and_branch_markers_are_distinct(self):
        svg = render_svg(_tree_result(SQUARE))
        term = next(l for l in svg.splitlines() if 'class="terminal"' in l)
        branch = next(l for l in svg.splitlines() if 'class="branch"' in l)
        t_fill = term.split('fill="')[1].split('"')[0]
        b_fill = branch.split('fill="')[1].split('"')[0]
        assert t_fill != b_fill

    def test_byte_identical_rerender(self):
        res = _tree_result(SQUARE)
        assert render_svg(res) == render_svg(res)

    def test_byte_identical_through_serialization(self):
        res = _tree_result(SQUARE)
        back = parse_result(serialize_result(res))
        assert render_svg(back) == render_svg(res)

    def test_valid_xml_header_and_footer(self):
        svg = render_svg(_tree_result(SQUARE))
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")


class TestMdmRendering:
    def test_dashed_tube_per_edge(self):
        svg = render_svg(_mdm_result())
        assert svg.count('class="tube"') == 2
        assert svg.count("stroke-dasharray") == 2
        tube = next(l for l in svg.splitlines() if 'class="tube"' in l)
        assert 'stroke-width="1.5000"' in tube  # 2 * r

    def test_energetic_markers_rendered_open(self):
        svg = render_svg(_mdm_result())
        assert svg.count('class="energetic"') == 2
        marker = next(l for l in svg.splitlines() if 'class="energetic"' in l)
        assert 'fill="none"' in marker

    def test_all_vertices_drawn_as_input_dots(self):
        svg = render_svg(_mdm_result())
        assert svg.count('class="terminal"') == 3
        assert svg.count('class="branch"') == 0


class TestProjection:
    def _tetra(self) -> ResultFile:
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.9, 0.0], [0.5, 0.3, 0.8]]
        )
        return _tree_result(pts)

    def test_3d_requires_projection_flag(self):
        with pytest.raises(IoError, match="project"):
            render_svg(self._tetra())

    def test_3d_projects_with_warning_comment(self):
        svg = render_svg(self._tetra(), project=True)
        assert "orthographic projection" in svg
        assert svg.count('class="terminal"') == 4

    def test_higher_dims_rejected(self):
        res = _tree_result(SQUARE)
        res.dim = 4
        res.vertices = np.hstack([res.vertices, np.zeros((len(res.vertices), 2))])
        with pytest.raises(IoError, match="dim"):
            render_svg(res, project=True)


_DIGEST = "sha256:" + "0" * 64
_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" width="640" '
_EDGE = 'fill="none" stroke="#1f3552" stroke-width="{}" stroke-linecap="round"/>'
_TUBE = (
    'fill="none" stroke="#9ecae1" stroke-width="1.5000" stroke-linecap="round" '
    'stroke-dasharray="0.1067 0.0800" stroke-opacity="0.45"/>'
)


class TestExactBytes:
    """The renderer's output text, pinned character for character."""

    def test_planar_tree(self):
        res = ResultFile(
            SCHEMA_VERSION, _DIGEST, "steiner", 2, 2.7320508075688772,
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.7320508075688772], [1.0, 0.5773502691896257]]),
            [(0, 3), (1, 3), (2, 3)], n_terminals=3,
        )
        edge = _EDGE.format("0.0133")
        assert render_svg(res) == (
            _HEAD + 'viewBox="-0.1600 -1.8921 2.3200 2.0521">\n'
            '<g class="frame" transform="scale(1,-1)">\n'
            f'<path class="edge" d="M 0.0000 0.0000 L 1.0000 0.5774" {edge}\n'
            f'<path class="edge" d="M 2.0000 0.0000 L 1.0000 0.5774" {edge}\n'
            f'<path class="edge" d="M 1.0000 1.7321 L 1.0000 0.5774" {edge}\n'
            '<circle class="terminal" cx="0.0000" cy="0.0000" r="0.0286" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="2.0000" cy="0.0000" r="0.0286" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="1.0000" cy="1.7321" r="0.0286" fill="#d1495b"/>\n'
            '<circle class="branch" cx="1.0000" cy="0.5774" r="0.0190" fill="#30638e"/>\n'
            "</g>\n</svg>\n"
        )

    def test_coverage_network_with_negative_zero(self):
        res = ResultFile(
            SCHEMA_VERSION, _DIGEST, "mdm", 2, 3.0,
            np.array([[-0.0, 0.0], [1.25, -0.00004], [2.5, 0.5]]), [(0, 1), (1, 2)], r=0.75,
            report={"energetic": [[-0.00001, 0.0], [2.5, 0.5]]},
        )
        edge = _EDGE.format("0.0267")
        marker = 'r="0.0914" fill="none" stroke="#e8a13c" stroke-width="0.0213"/>'
        assert render_svg(res) == (
            _HEAD + 'viewBox="-1.0700 -1.5700 4.6400 2.6400">\n'
            '<g class="frame" transform="scale(1,-1)">\n'
            f'<path class="tube" d="M 0.0000 0.0000 L 1.2500 0.0000" {_TUBE}\n'
            f'<path class="tube" d="M 1.2500 0.0000 L 2.5000 0.5000" {_TUBE}\n'
            f'<path class="edge" d="M 0.0000 0.0000 L 1.2500 0.0000" {edge}\n'
            f'<path class="edge" d="M 1.2500 0.0000 L 2.5000 0.5000" {edge}\n'
            '<circle class="terminal" cx="0.0000" cy="0.0000" r="0.0571" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="1.2500" cy="0.0000" r="0.0571" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="2.5000" cy="0.5000" r="0.0571" fill="#d1495b"/>\n'
            f'<circle class="energetic" cx="0.0000" cy="0.0000" {marker}\n'
            f'<circle class="energetic" cx="2.5000" cy="0.5000" {marker}\n'
            "</g>\n</svg>\n"
        )

    def test_projected_3d_tree(self):
        res = ResultFile(
            SCHEMA_VERSION, _DIGEST, "steiner", 3, 3.0,
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.5], [0.25, 0.25, 0.125]]),
            [(0, 3), (1, 3), (2, 3)], n_terminals=3,
        )
        edge = _EDGE.format("0.0067")
        assert render_svg(res, project=True) == (
            _HEAD + 'viewBox="-0.0800 -1.0800 1.1600 1.1600">\n'
            "<!-- orthographic projection of a 3-dimensional result (z dropped) -->\n"
            '<g class="frame" transform="scale(1,-1)">\n'
            f'<path class="edge" d="M 0.0000 0.0000 L 0.2500 0.2500" {edge}\n'
            f'<path class="edge" d="M 1.0000 0.0000 L 0.2500 0.2500" {edge}\n'
            f'<path class="edge" d="M 0.0000 1.0000 L 0.2500 0.2500" {edge}\n'
            '<circle class="terminal" cx="0.0000" cy="0.0000" r="0.0143" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="1.0000" cy="0.0000" r="0.0143" fill="#d1495b"/>\n'
            '<circle class="terminal" cx="0.0000" cy="1.0000" r="0.0143" fill="#d1495b"/>\n'
            '<circle class="branch" cx="0.2500" cy="0.2500" r="0.0095" fill="#30638e"/>\n'
            "</g>\n</svg>\n"
        )
