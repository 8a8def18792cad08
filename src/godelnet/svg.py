"""Tiny deterministic SVG writers.

Hand-rolled on purpose: the experiment reports must regenerate byte-for-byte
from the recorded CSV data, so the plots avoid any library whose output could
drift between versions.  Only static line charts and colored grids are
needed.
"""

_GOLDEN_ANGLE = 137.508


def class_color(class_id, class_count):
    """Stable, well-separated fill color per class id (HSL hue rotation)."""
    hue = (class_id * _GOLDEN_ANGLE) % 360.0
    return "hsl(%.1f, 62%%, 62%%)" % hue


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def strip_svg(values, class_count, title="", cell_px=28, height_px=48):
    """One row of colored cells (interval partitions)."""
    n = len(values)
    width = n * cell_px
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height_px + 18),
        '<title>%s</title>' % _esc(title),
    ]
    for k, cid in enumerate(values):
        parts.append(
            '<rect x="%d" y="18" width="%d" height="%d" fill="%s" stroke="#333" stroke-width="0.5"/>'
            % (k * cell_px, cell_px, height_px, class_color(cid, class_count))
        )
        parts.append(
            '<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle" fill="#000">%d</text>'
            % (k * cell_px + cell_px / 2, 18 + height_px / 2 + 3, cid)
        )
    parts.append('<text x="2" y="12" font-size="11" fill="#000">%s</text>' % _esc(title))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grid_svg(nx, ny, class_ids, class_count, title="", cell_px=22):
    """Colored nx-by-ny grid; cell (0,0) bottom-left, math orientation.

    ``class_ids`` lists the cells row-major: cell (i, j) at i * ny + j.
    """
    width, height = nx * cell_px, ny * cell_px
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height + 18),
        '<title>%s</title>' % _esc(title),
        '<text x="2" y="12" font-size="11" fill="#000">%s</text>' % _esc(title),
    ]
    for k, cid in enumerate(class_ids):
        i, j = divmod(k, ny)
        x = i * cell_px
        y = 18 + (ny - 1 - j) * cell_px
        parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333" stroke-width="0.5"/>'
            % (x, y, cell_px, cell_px, class_color(cid, class_count))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart(series, title="", xlabel="step", width=640, height=360):
    """Line/step chart; ``series`` is a list of (name, [(x, y), ...]) pairs.

    Values are plotted exactly as given (floats); axis ticks at data x
    positions and at a handful of y positions.
    """
    pad_l, pad_r, pad_t, pad_b = 56, 16, 28, 36
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0], [0.0]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1
    if y_max == y_min:
        y_max = y_min + 1.0
    span_y = y_max - y_min
    y_min -= 0.05 * span_y
    y_max += 0.05 * span_y

    def px(x):
        return pad_l + plot_w * (x - x_min) / (x_max - x_min)

    def py(y):
        return pad_t + plot_h * (1.0 - (y - y_min) / (y_max - y_min))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height),
        '<title>%s</title>' % _esc(title),
        '<text x="%d" y="16" font-size="13" fill="#000">%s</text>' % (pad_l, _esc(title)),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>' % (pad_l, pad_t, plot_w, plot_h),
    ]
    for k in range(5):
        yv = y_min + (y_max - y_min) * k / 4
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#ddd"/>' % (pad_l, py(yv), pad_l + plot_w, py(yv)))
        parts.append('<text x="%d" y="%.2f" font-size="10" text-anchor="end" fill="#000">%.4g</text>' % (pad_l - 4, py(yv) + 3, yv))
    for xv in sorted(set(xs)):
        parts.append('<text x="%.2f" y="%d" font-size="10" text-anchor="middle" fill="#000">%s</text>' % (px(xv), height - pad_b + 14, xv))
    parts.append('<text x="%d" y="%d" font-size="11" text-anchor="middle" fill="#000">%s</text>' % (pad_l + plot_w // 2, height - 6, _esc(xlabel)))

    palette = ["#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#444444"]
    for idx, (name, pts) in enumerate(series):
        color = palette[idx % len(palette)]
        coords = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in pts)
        parts.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>' % (coords, color))
        for x, y in pts:
            parts.append('<circle cx="%.2f" cy="%.2f" r="2.4" fill="%s"/>' % (px(x), py(y), color))
        parts.append(
            '<text x="%d" y="%d" font-size="11" fill="%s">%s</text>'
            % (pad_l + plot_w - 120, pad_t + 14 + 14 * idx, color, _esc(name))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
