"""Strip-image figures: the iterated images of the square as closed bands.

Each length-n word contributes one band, bounded above and below by the
fiber image envelope over the arrival grid.  Output is plain SVG (filled
translucent polygons so overlaps stay visible) plus a CSV vertex list for
external plotting; nothing interactive.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError, ParameterError
from .symbolic import fiber_image, lex_words

_BAND_BUDGET = 4096  # most bands one figure draws
_SVG_SIZE, _SVG_PAD = 640, 24  # square SVG side and margin, in pixels
_PALETTE = ("#27557b", "#b3372b", "#3d7a3f", "#8e5e24",
            "#5c4a7d", "#1d7c84", "#a03d6b", "#556b1f")


def word_label(word):
    return ".".join(str(s) for s in word)


def strip_polygons(spec, n, x_grid_n=129, hat=False):
    """Band polygons for every length-n word, in lexicographic order.

    Returns a list of (word row, vertices), the vertices an (2*x_grid_n, 2)
    array tracing the upper envelope left to right and the lower one back.
    More than ``_BAND_BUDGET`` bands raise ``BudgetError``.
    """
    if n < 1:
        raise ParameterError(f"iterate count must be >= 1, got {n}")
    count = spec.n_strips ** n
    if count > _BAND_BUDGET:
        raise BudgetError(
            f"{count} bands at depth {n} exceed the budget of {_BAND_BUDGET}")
    xg = np.linspace(0.0, 1.0, x_grid_n)
    words = lex_words(spec.n_strips, n)
    lo, hi = fiber_image(spec, words, xg, hat=hat)
    verts = np.empty((count, 2 * x_grid_n, 2))
    verts[:, :x_grid_n, 0] = xg
    verts[:, :x_grid_n, 1] = hi
    verts[:, x_grid_n:, 0] = xg[::-1]
    verts[:, x_grid_n:, 1] = lo[:, ::-1]
    return list(zip(words, verts))


def _svg_lines(polygons):
    """The SVG figure of ``polygons``, one line at a time, each with its
    newline."""
    size, pad = _SVG_SIZE, _SVG_PAD
    ymin = min(min(float(v[:, 1].min()) for _, v in polygons), 0.0)
    ymax = max(max(float(v[:, 1].max()) for _, v in polygons), 1.0)
    span = ymax - ymin
    inner = size - 2 * pad

    def sx(x):
        return pad + x * inner

    def sy(y):
        return pad + (ymax - y) / span * inner

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">\n')
    yield (f'<rect x="{pad}" y="{sy(1.0):.2f}" width="{inner}" '
           f'height="{sy(0.0) - sy(1.0):.2f}" fill="none" '
           'stroke="#999999" stroke-width="1"/>\n')
    # every band shares the x column of strip_polygons: bake its text in once
    points = " ".join(f"{x:.2f},%.2f" for x in sx(polygons[0][1][:, 0]).tolist())
    for k, (word, verts) in enumerate(polygons):
        pts = points % tuple(sy(verts[:, 1]).tolist())
        color = _PALETTE[k % len(_PALETTE)]
        yield (f'<polygon points="{pts}" fill="{color}" fill-opacity="0.35" '
               f'stroke="{color}" stroke-width="0.8">'
               f"<title>{word_label(word)}</title></polygon>\n")
    yield "</svg>\n"


def emit_strip_polygons(spec, n, svg_path=None, csv_path=None,
                        x_grid_n=129, hat=False):
    """Write the depth-n band figure as SVG and/or a CSV vertex list.

    The CSV has one row per vertex (word, vertex index, x, y), bands in
    lexicographic word order so output is deterministic.  Returns the
    polygon list of strip_polygons for further inspection.
    """
    polygons = strip_polygons(spec, n, x_grid_n=x_grid_n, hat=hat)
    # both files are written band by band, so no whole-file text is held
    if svg_path is not None:
        with open(svg_path, "w") as fh:
            fh.writelines(_svg_lines(polygons))
    if csv_path is not None:
        # one template per figure with the shared x column baked in; a word
        # label holds digits and dots only, so it is safe to splice in
        band = "".join(f"{{lab}},{i},{x!r},%r\n"
                       for i, x in enumerate(polygons[0][1][:, 0].tolist()))
        with open(csv_path, "w") as fh:
            fh.write("word,vertex,x,y\n")
            fh.writelines(band.replace("{lab}", word_label(word))
                          % tuple(verts[:, 1].tolist()) for word, verts in polygons)
    return polygons
