"""ASCII and SVG rendering of bargraph polyominoes.

Both renderers draw every unit cell with its outline (matching the usual
column-diagram pictures) and can mark interior lattice points, i.e. the
points shared by four cells, as filled dots.
"""

from .words import CatalanWord, Polyomino


def render_ascii(w: CatalanWord, mark_interior: bool = False) -> str:
    """Character-grid drawing; interior points render as '*'."""
    poly = Polyomino.from_word(w)
    n = len(poly)
    if n == 0:
        return "ε"
    height = max(poly.heights)
    cells = poly.cells()
    grid = [[" "] * (2 * n + 1) for _ in range(2 * height + 1)]

    def put(row, col, ch):
        grid[2 * height - row][col] = ch

    for (cx, cy) in cells:
        put(2 * cy + 1, 2 * cx + 1, " ")
        put(2 * cy, 2 * cx + 1, "-")
        put(2 * cy + 2, 2 * cx + 1, "-")
        put(2 * cy + 1, 2 * cx, "|")
        put(2 * cy + 1, 2 * cx + 2, "|")
        for (dx, dy) in ((0, 0), (0, 2), (2, 0), (2, 2)):
            put(2 * cy + dy, 2 * cx + dx, "+")
    if mark_interior:
        for (px, py) in poly.interior_points():
            put(2 * py, 2 * px, "*")
    return "\n".join("".join(line).rstrip() for line in grid if "".join(line).strip())


def render_svg(w: CatalanWord, cell_size: int = 20, mark_interior: bool = False) -> str:
    """SVG 1.1 drawing; one unit cell = cell_size pixels."""
    if cell_size < 1:
        raise ValueError(f"cell size must be >= 1, got {cell_size}")
    poly = Polyomino.from_word(w)
    n = len(poly)
    height = max(poly.heights) if n else 1
    width_px = n * cell_size
    height_px = height * cell_size
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
    ]
    for (cx, cy) in sorted(poly.cells()):
        x = cx * cell_size
        y = (height - 1 - cy) * cell_size
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell_size}" height="{cell_size}" '
            f'fill="#ffd9e0" stroke="black" stroke-width="1"/>'
        )
    if mark_interior:
        r = max(2, cell_size // 6)
        for (px, py) in sorted(poly.interior_points()):
            x = px * cell_size
            y = (height - py) * cell_size
            parts.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)
