"""Hand-rolled SVG emitter for trial trajectories over a scenario world.

Obstacles draw as labeled discs with their clearance ring dashed, the
start as a square, the goal as a cross, and each trajectory as a colored
polyline with a legend entry. Output bytes are deterministic, and names
and labels are escaped, so any scenario name or class gives well-formed XML.
"""

from __future__ import annotations

import re
from typing import Sequence

from soar_sim.scenario_io import ScenarioSpec
from soar_sim.world import Vec2, effective_d0

SIZE_PX = 720  # the longer side of the drawing, in pixels
# one color per mode label; extras cycle
_PALETTE = {
    "soar": "#1f77b4",
    "non_soar": "#d62728",
}
_EXTRA_COLORS = ("#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# characters XML 1.0 cannot hold at all, escaped or not
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _text(s: str) -> str:
    """s as XML character data: markup escaped, unrepresentable characters as U+FFFD.

    These are xml.sax.saxutils.escape's replacements; that module is not
    imported because it loads urllib.request, and with it http.client and
    email, into every CLI command.
    """
    s = _NOT_XML_CHAR.sub("\ufffd", s)
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _comment(s: str) -> str:
    """s as XML comment text: no markup there, but no "--" either."""
    return re.sub("-(?=-)", "- ", _NOT_XML_CHAR.sub("\ufffd", s))


def _color_for(label: str, index: int) -> str:
    return _PALETTE.get(label, _EXTRA_COLORS[index % len(_EXTRA_COLORS)])


def render_svg(
    spec: ScenarioSpec,
    trajectories: Sequence[tuple[str, Sequence[Vec2]]],
) -> str:
    """Render the world plus (label, points) trajectories to an SVG string."""
    if not trajectories:
        raise ValueError("at least one trajectory required")
    for label, points in trajectories:
        if not points:
            raise ValueError(f"trajectory {label!r} is empty")

    xs = [spec.start_pose[0].x, spec.goal.x]
    ys = [spec.start_pose[0].y, spec.goal.y]
    for obs in spec.obstacles:
        ring = obs.radius + effective_d0(spec.policy, obs.class_label)
        xs += [obs.center.x - ring, obs.center.x + ring]
        ys += [obs.center.y - ring, obs.center.y + ring]
    for _, points in trajectories:
        xs += [p.x for p in points]
        ys += [p.y for p in points]

    pad = 1.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    span = max(x1 - x0, y1 - y0, 1e-6)
    scale = SIZE_PX / span
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        # flip so +y points up
        return height - (y - y0) * scale

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect width="{fmt(width)}" height="{fmt(height)}" fill="#fafafa"/>',
        f"<!-- scenario: {_comment(spec.name)} -->",
    ]

    for obs in spec.obstacles:
        cx, cy = fmt(sx(obs.center.x)), fmt(sy(obs.center.y))
        d0 = effective_d0(spec.policy, obs.class_label)
        if d0 > 0.0:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{fmt((obs.radius + d0) * scale)}" '
                f'fill="none" stroke="#999999" stroke-dasharray="6 4" stroke-width="1"/>'
            )
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{fmt(max(obs.radius, 0.05) * scale)}" '
            f'fill="#c8c8c8" stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{cx}" y="{cy}" font-size="10" text-anchor="middle" '
            f'fill="#333333">{_text(obs.class_label)}#{obs.id}</text>'
        )

    for index, (label, points) in enumerate(trajectories):
        color = _color_for(label, index)
        coords = " ".join(f"{fmt(sx(p.x))},{fmt(sy(p.y))}" for p in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    # start square
    s = spec.start_pose[0]
    half = 5.0
    parts.append(
        f'<rect x="{fmt(sx(s.x) - half)}" y="{fmt(sy(s.y) - half)}" '
        f'width="{fmt(2 * half)}" height="{fmt(2 * half)}" '
        f'fill="#2ca02c" stroke="#145214"/>'
    )
    # goal cross
    g, arm = spec.goal, 6.0
    gx, gy = sx(g.x), sy(g.y)
    for dx1, dy1, dx2, dy2 in ((-arm, -arm, arm, arm), (-arm, arm, arm, -arm)):
        parts.append(
            f'<line x1="{fmt(gx + dx1)}" y1="{fmt(gy + dy1)}" '
            f'x2="{fmt(gx + dx2)}" y2="{fmt(gy + dy2)}" '
            f'stroke="#d62728" stroke-width="2.5"/>'
        )
    # goal radius ring
    parts.append(
        f'<circle cx="{fmt(gx)}" cy="{fmt(gy)}" r="{fmt(spec.goal_radius * scale)}" '
        f'fill="none" stroke="#d62728" stroke-width="0.8"/>'
    )

    for index, (label, _) in enumerate(trajectories):
        color = _color_for(label, index)
        y = 16.0 + 14.0 * index
        parts.append(
            f'<line x1="8" y1="{fmt(y)}" x2="30" y2="{fmt(y)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="34" y="{fmt(y + 3.5)}" font-size="11" fill="#222222">{_text(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
