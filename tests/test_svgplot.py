import numpy as np

from netforge.svgplot import NEG_COLOR, POS_COLOR, heatmap_svg, scatter_svg


def test_scatter_colors_by_sign(tmp_path):
    path = tmp_path / "s.svg"
    scatter_svg([0j, 1 + 0j, 1j], [1, -1, 1], path)
    text = path.read_text()
    assert text.count(POS_COLOR) == 2
    assert text.count(NEG_COLOR) == 1
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_scatter_empty_canvas(tmp_path):
    path = tmp_path / "e.svg"
    scatter_svg([], [], path)
    text = path.read_text()
    assert "<circle" not in text
    assert "<svg" in text


def test_scatter_accepts_cloud_points(tmp_path):
    from netforge.assembly import Configuration
    cloud = Configuration([0j, 2j], [1, -1], ["x", "y"], 2.0)
    path = tmp_path / "c.svg"
    scatter_svg(cloud.positions, cloud.signs, path)
    assert path.read_text().count("<circle") == 2


def test_heatmap_has_colorbar_and_cells(tmp_path):
    path = tmp_path / "h.svg"
    x = np.linspace(0, 1, 5)
    y = np.linspace(0, 1, 7)
    vals = np.outer(np.sin(x), np.cos(y))
    heatmap_svg(x, y, vals, path)
    text = path.read_text()
    assert text.count("<rect") >= 5 * 7 + 64  # cells plus colorbar bands
    assert text.count("<text") == 3           # min / mid / max labels


def test_heatmap_constant_field(tmp_path):
    path = tmp_path / "k.svg"
    vals = np.ones((4, 4))
    heatmap_svg(np.arange(4.0), np.arange(4.0), vals, path)
    assert "<svg" in path.read_text()


def test_output_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    z, signs = [0.1 + 0.2j, 3 - 1j], [1, -1]
    scatter_svg(z, signs, p1)
    scatter_svg(z, signs, p2)
    assert p1.read_bytes() == p2.read_bytes()
