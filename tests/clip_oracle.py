"""Sutherland-Hodgman clipping: the exact polygon-intersection oracle the tests
compare the chord-slice kernel against."""


def clip_convex(subject, clip):
    """Sutherland-Hodgman clip of convex subject polygon by convex clip polygon."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for j in range(n):
        if not output:
            return []
        cx, cy = clip[j]
        dx, dy = clip[(j + 1) % n]
        ex, ey = dx - cx, dy - cy
        inp = output
        output = []
        sx, sy = inp[-1]
        s_in = ex * (sy - cy) - ey * (sx - cx) >= 0.0
        for px, py in inp:
            p_in = ex * (py - cy) - ey * (px - cx) >= 0.0
            if p_in != s_in:
                num = ex * (sy - cy) - ey * (sx - cx)
                den = num - (ex * (py - cy) - ey * (px - cx))
                t = num / den
                output.append((sx + t * (px - sx), sy + t * (py - sy)))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
    return output


def poly_area(points):
    if len(points) < 3:
        return 0.0
    s = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * abs(s)


def oracle_area(subject_vertices, clip_vertices):
    """Area of the intersection of two convex polygons given by their vertices."""
    return poly_area(clip_convex(subject_vertices, clip_vertices))
