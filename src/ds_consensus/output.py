"""CSV / SVG / JSON emission for sweep results and run traces.

All outputs are UTF-8 and newline-terminated; identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from .dst import prop_to_str
from .runner import BifurcationResult, RunResult

CSV_HEADER = "epsilon,agent_id,proposition,limit_mass,cluster_id,cluster_count,consensus,iterations"


def _csv_field(text: str) -> str:
    """A CSV field as RFC 4180 writes it: in double quotes, its own quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_sweep_csv(result: BifurcationResult, path) -> None:
    lines = [CSV_HEADER]
    prop = _csv_field(result.proposition)  # a compound proposition such as 1,2
    masses, clusters = result.limit_masses.tolist(), result.cluster_ids.tolist()
    for gi, eps in enumerate(result.grid):
        count = result.cluster_counts[gi]
        consensus = "true" if result.consensus[gi] else "false"
        iters = result.iterations[gi]
        for agent, (mass, cluster) in enumerate(zip(masses[gi], clusters[gi])):
            lines.append(f"{float(eps)!r},{agent + 1},{prop},{mass!r},"
                         f"{cluster},{count},{consensus},{iters}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# trajectory.csv is written in blocks of steps that hold about this many masses
TRACE_BLOCK = 1 << 16


def write_trace(result: RunResult, out: Path) -> None:
    """Write a traced run into the directory ``out``: ``trajectory.csv``, one
    row per nonzero mass of every state in step, agent and subset order, and
    ``pruned_edges.json``, each step's kept edges.  The rows are formed and
    written a block of steps at a time, and the edges a step at a time, so
    neither file is held whole as text."""
    masses = result.trajectory[:, :, 1:]  # the empty set never carries mass
    props = [_csv_field(prop_to_str(mask, result.report.frame))
             for mask in range(1, masses.shape[2] + 1)]
    block = max(1, TRACE_BLOCK // masses[0].size)
    with open(out / "trajectory.csv", "w", encoding="utf-8") as f:
        f.write("step,agent_id,proposition,mass\n")
        for lo in range(0, len(masses), block):
            part = masses[lo:lo + block]
            step, agent, col = (part != 0.0).nonzero()
            f.write("".join([f"{s},{a + 1},{props[c]},{m!r}\n" for s, a, c, m in zip(
                (step + lo).tolist(), agent.tolist(), col.tolist(),
                part[step, agent, col].tolist())]))
    # a run records one edge set per kept set, so each is sorted and dumped once
    dumped = {e: json.dumps(sorted(e)) for e in set(result.pruned_edges)}
    with open(out / "pruned_edges.json", "w", encoding="utf-8") as f:
        f.write("[")
        f.writelines(", " + dumped[e] if s else dumped[e]
                     for s, e in enumerate(result.pruned_edges))
        f.write("]\n")


def write_sweep_json(result: BifurcationResult, path) -> None:
    data = {
        "scenario": result.scenario,
        "proposition": result.proposition,
        "grid": list(result.grid),
        "cluster_counts": list(result.cluster_counts),
        "consensus": list(result.consensus),
        "iterations": list(result.iterations),
        "smallest_consensus_epsilon": result.smallest_consensus_epsilon(),
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


_W, _H = 720, 480
_ML, _MR, _MT, _MB = 60, 20, 40, 50


def _x(eps: float, lo: float, hi: float) -> float:
    span = (hi - lo) or 1.0
    return _ML + (eps - lo) / span * (_W - _ML - _MR)


def _y(mass: float) -> float:
    return _H - _MB - mass * (_H - _MT - _MB)


def write_sweep_svg(result: BifurcationResult, path) -> None:
    """Scatter of limit mass against the bound of confidence, one mark per agent."""
    lo = result.grid[0] if result.grid else 0.0
    hi = result.grid[-1] if result.grid else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{html.escape(result.scenario, quote=False)}: limit mass of '
        f'{html.escape(result.proposition, quote=False)} vs bound of confidence</text>',
    ]
    axis = (f'<line x1="{_ML}" y1="{_y(0):.1f}" x2="{_W - _MR}" y2="{_y(0):.1f}" '
            f'stroke="black"/>'
            f'<line x1="{_ML}" y1="{_y(0):.1f}" x2="{_ML}" y2="{_y(1):.1f}" '
            f'stroke="black"/>')
    parts.append(axis)
    for t in range(6):
        frac = t / 5
        eps = lo + frac * (hi - lo)
        x = _x(eps, lo, hi)
        parts.append(f'<line x1="{x:.1f}" y1="{_y(0):.1f}" x2="{x:.1f}" '
                     f'y2="{_y(0) + 5:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_y(0) + 20:.1f}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{eps:.2f}</text>')
        y = _y(frac)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_ML - 9}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{frac:.1f}</text>')
    parts.append(f'<text x="{(_W + _ML - _MR) / 2:.1f}" y="{_H - 12}" '
                 f'text-anchor="middle" font-size="13" font-family="sans-serif">'
                 f'bound of confidence</text>')
    for eps, masses in zip(result.grid, result.limit_masses.tolist()):
        x = _x(eps, lo, hi)
        for mass in masses:
            y = _y(mass)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.8" '
                         f'fill="#1f6fb4" fill-opacity="0.55"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
