"""Minimal SVG emitters: sign-colored point scatters and field heatmaps.

No plotting dependency; the files are assembled by hand so output is
deterministic (no timestamps, no library version strings).
"""

import numpy as np

POS_COLOR = "#1f4fd8"   # sign +1
NEG_COLOR = "#d82f1f"   # sign -1


def _svg_open(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n')


def scatter_svg(positions, signs, path, size=800, margin=40, radius=2.5):
    """Write a scatter plot of the points at complex `positions`; blue
    where `signs` is +1, red where it is -1. No points give an empty
    canvas."""
    z = np.asarray(positions, dtype=complex)
    parts = [_svg_open(size, size)]
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    if z.size:
        xs, ys = z.real, z.imag
        span = max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)
        scale = (size - 2 * margin) / span
        cx = (xs.min() + xs.max()) / 2
        cy = (ys.min() + ys.max()) / 2
        px = size / 2 + (xs - cx) * scale
        py = size / 2 - (ys - cy) * scale
        colors = np.where(np.asarray(signs) > 0, POS_COLOR, NEG_COLOR)
        parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" '
                     f'fill="{c}"/>\n'
                     for x, y, c in zip(px.tolist(), py.tolist(),
                                        colors.tolist()))
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def _colormap(t):
    """Blue -> white -> red ramp on [0, 1], returned as an #rrggbb string."""
    t = min(max(float(t), 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = 31 + u * (255 - 31), 79 + u * (255 - 79), 216 + u * (255 - 216)
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255 + u * (216 - 255), 255 + u * (47 - 255), 255 + u * (31 - 255)
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def heatmap_svg(x, y, values, path, size=640, bar_width=60):
    """Write a heatmap of values[i, j] at (x[i], y[j]) with a colorbar.

    The color range is symmetric about zero when the data changes sign,
    otherwise it spans [min, max].
    """
    values = np.asarray(values, dtype=float)
    nx, ny = values.shape
    vmin, vmax = float(values.min()), float(values.max())
    if vmin < 0.0 < vmax:
        vmax = max(abs(vmin), abs(vmax))
        vmin = -vmax
    if vmax <= vmin:
        vmax = vmin + 1.0
    cell_w = size / nx
    cell_h = size / ny
    width = size + bar_width + 60
    parts = [_svg_open(width, size)]
    parts.append(f'<rect width="{width}" height="{size}" fill="white"/>\n')
    for i in range(nx):
        for j in range(ny):
            t = (values[i, j] - vmin) / (vmax - vmin)
            px = i * cell_w
            py = size - (j + 1) * cell_h
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" '
                         f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}" '
                         f'fill="{_colormap(t)}"/>\n')
    # colorbar: stacked bands, value axis upward
    bx = size + 20
    nbands = 64
    band_h = size / nbands
    for k in range(nbands):
        t = (k + 0.5) / nbands
        py = size - (k + 1) * band_h
        parts.append(f'<rect x="{bx}" y="{py:.2f}" width="{bar_width // 2}" '
                     f'height="{band_h + 0.5:.2f}" fill="{_colormap(t)}"/>\n')
    for t, v in ((0.0, vmin), (0.5, (vmin + vmax) / 2), (1.0, vmax)):
        py = size - t * size
        py = min(max(py, 10.0), size - 2.0)
        parts.append(f'<text x="{bx + bar_width // 2 + 4}" y="{py:.2f}" '
                     f'font-size="12" font-family="monospace">{v:.3g}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))
