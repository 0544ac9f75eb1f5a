"""Independent oracles used to freeze expected values in the tests.

Everything here is computed from first principles (closed forms, dense
grids, generic QP solvers), never through the library's own code paths,
so the tests compare two independent derivations.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, optimize


def grid_event_mass_1d(weights, components, predicate, grid: int = 20001):
    """Exact-ish event mass for a 1-D mixture of segments and atoms.

    components: list of ("atom", x) or ("segment", lo, hi). Segments are
    integrated on a dense midpoint grid; atoms are evaluated exactly.
    """
    total = 0.0
    for w, comp in zip(weights, components):
        w = float(w)
        if comp[0] == "atom":
            if predicate(np.array([[comp[1]]]))[0]:
                total += w
        else:
            lo, hi = comp[1], comp[2]
            if hi <= lo:
                if predicate(np.array([[lo]]))[0]:
                    total += w
                continue
            step = (hi - lo) / grid
            xs = (lo + (np.arange(grid) + 0.5) * step)[:, None]
            total += w * float(np.mean(predicate(xs)))
    return total


def ball_coordinate_second_moment(n: int, radius: float) -> float:
    """E[x_1^2] for the uniform law on an n-ball, by radial quadrature."""
    num = integrate.quad(lambda t: t ** (n - 1) * t * t, 0.0, radius)[0]
    den = integrate.quad(lambda t: t ** (n - 1), 0.0, radius)[0]
    return (num / den) / n


def disk_slab_area_ratio(half_width: float) -> float:
    """Area fraction of {|x_1| <= h} inside the unit disk, by quadrature."""
    area = integrate.quad(lambda x: 2.0 * math.sqrt(1.0 - x * x),
                          -half_width, half_width)[0]
    return area / math.pi


def disk_cut_by_chord(d: float, radius: float = 1.0):
    """Area and centroid x of {x_1 <= d} in the disk B(0, radius), |d| < radius.

    Closed form: the cut-off circular segment has area
    r^2 acos(d/r) - d sqrt(r^2 - d^2), and the first moment of the kept part
    is -(2/3)(r^2 - d^2)^{3/2}.
    """
    h = radius * radius - d * d
    area = math.pi * radius ** 2 - (radius ** 2 * math.acos(d / radius) - d * math.sqrt(h))
    return area, -2.0 / 3.0 * h ** 1.5 / area


def square_in_disk_moments(half: float, radius: float):
    """Area and E[x_1^2] of the square [-half, half]^2 clipped to B(0, radius),
    by quadrature over x_1 of the clipped chord length."""
    def chord(x):
        return 2.0 * min(half, math.sqrt(max(radius * radius - x * x, 0.0)))

    reach = min(half, radius)
    kink = math.sqrt(max(radius * radius - half * half, 0.0))  # where the circle meets the square
    kinks = [-kink, kink] if kink < reach else None
    area = integrate.quad(chord, -reach, reach, points=kinks)[0]
    second = integrate.quad(lambda x: x * x * chord(x), -reach, reach, points=kinks)[0]
    return area, second / area


def abs_convolution_gradient(x: float, delta: float) -> float:
    """d/dx of |.| convolved with Uniform[-delta, delta]."""
    if abs(x) >= delta:
        return math.copysign(1.0, x)
    return x / delta


def toy_r(f_t_at_x: float, alpha, f_i_at_own_net) -> float:
    return f_t_at_x - float(sum(a * v for a, v in zip(alpha, f_i_at_own_net)))


def toy_v(alpha, f_t_at_x: float, f_i_at_x) -> float:
    return float(sum(a * (f_t_at_x - fi) ** 2
                     for a, fi in zip(alpha, f_i_at_x)))


def step1_grid_oracle(alpha, fi_at_xbar, regret_floor: float = 0.0):
    """Reference scan for the dyadic epsilon search, including relaxation."""
    alpha = np.asarray(alpha, dtype=float)
    fi = np.asarray(fi_at_xbar, dtype=float)
    L = float(np.dot(alpha, fi))
    if L >= -regret_floor:
        raise ValueError("exploit branch")
    a = abs(L)
    base = a / (2.0 * math.log(2.0 / a))
    relax = 1.0
    for _ in range(65):
        eps = a / 2.0
        while eps <= 1.0 + 1e-15:
            mass = float(alpha[fi <= -eps].sum())
            if mass >= relax * base / eps:
                return eps, np.flatnonzero(fi <= -eps), relax < 1.0
            eps *= 2.0
        relax *= 0.5
    raise RuntimeError("oracle exhausted")


def min_norm_qp_oracle(points: np.ndarray):
    """Min-norm point of a convex hull via a generic SLSQP solve."""
    points = np.asarray(points, dtype=float)
    k = len(points)
    G = points @ points.T

    def obj(w):
        return float(w @ G @ w)

    def jac(w):
        return 2.0 * (G @ w)

    cons = [{"type": "eq", "fun": lambda w: w.sum() - 1.0,
             "jac": lambda w: np.ones(k)}]
    best = None
    for trial in range(6):
        w0 = np.full(k, 1.0 / k) if trial == 0 else np.random.default_rng(
            trial).dirichlet(np.ones(k))
        res = optimize.minimize(obj, w0, jac=jac, bounds=[(0, 1)] * k,
                                constraints=cons, method="SLSQP",
                                options={"maxiter": 500, "ftol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    w = np.clip(best.x, 0.0, None)
    w /= w.sum()
    return points.T @ w, w


def gaussian_posterior_oracle(prior, residuals, sigma: float):
    """Direct Bayes formula for Gaussian likelihoods."""
    prior = np.asarray(prior, dtype=float)
    res = np.asarray(residuals, dtype=float)
    w = prior * np.exp(-res ** 2 / (2.0 * sigma * sigma))
    return w / w.sum()


def segment_event_mass(f, g, lo: float, hi: float, gap_fn, grid: int = 10000):
    """Mass of {|f-g| > gap(x)} under Uniform[lo, hi] on a dense grid."""
    xs = np.linspace(lo, hi, grid)[:, None]
    fv, gv = f.value(xs), g.value(xs)
    return float(np.mean(np.abs(fv - gv) > gap_fn(xs.ravel(), fv)))


def round_quantities(sset, state, t: int, x):
    """f_t, f_{i,t}, r_t and v_t at one point by direct enumeration.

    Every scenario's round-t loss is evaluated at x and at the net points
    one point at a time. Returns (f, fi, r, v) with fi a dict over the net
    indices that carry posterior mass.
    """
    x = np.asarray(x, dtype=float)
    w = [float(a) for a in state.alpha_scenarios]
    losses = [sset.loss(s, t) for s in range(sset.size)]
    f = sum(w[s] * float(losses[s].value(x)) for s in range(sset.size))
    groups = {}
    for s in range(sset.size):
        if w[s] > 0:
            groups.setdefault(int(sset.istar[s]), []).append(s)
    fi, own, alpha = {}, {}, {}
    for i, members in groups.items():
        mass = sum(w[s] for s in members)
        alpha[i] = mass
        fi[i] = sum(w[s] * float(losses[s].value(x)) for s in members) / mass
        own[i] = sum(w[s] * float(losses[s].value(sset.net.points[i]))
                     for s in members) / mass
    r = f - sum(alpha[i] * own[i] for i in groups)
    v = sum(alpha[i] * (f - fi[i]) ** 2 for i in groups)
    return f, fi, r, v


def surrogate_rows_reference(weights, istar, values):
    """f_t and the f_{i,t} rows of a value table by a loop per net index.

    Row i sums (w_s / W_i)·values[s] from zero in scenario order over the
    scenarios with istar[s] == i and w_s > 0, where W_i is numpy's sum of
    their weights; f_t sums w_s·values[s] the same way. Indices without
    mass get no row. Returns (f, fi, support).
    """
    w = np.asarray(weights, dtype=float)
    f = np.zeros(values.shape[1])
    for s in range(w.size):
        if w[s] > 0:
            f += w[s] * values[s]
    support, rows = [], []
    for i in sorted(set(np.asarray(istar).tolist())):
        members = [s for s in range(w.size) if istar[s] == i and w[s] > 0]
        if members:
            mass = w[members].sum()
            row = np.zeros(values.shape[1])
            for s in members:
                row += (w[s] / mass) * values[s]
            support.append(i)
            rows.append(row)
    return f, np.array(rows), np.array(support)


def ids_two_point_ratio(r, v) -> float:
    """Exact min of (E r)^2 / E v over mixtures of at most two candidates.

    For the pair (a, b) with weight q on a, E r = r_b + q (r_a - r_b) and
    E v = v_b + q (v_a - v_b). On q in [0, 1] the ratio is smallest at an
    end, at the root of E r, or where 2 (r_a - r_b) E v = E r (v_a - v_b);
    all four are tried for every pair. Mixtures with E v = 0 are left out.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    rb, vb = r[None, :], v[None, :]
    dr, dv = r[:, None] - rb, v[:, None] - vb
    best = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for q in (np.zeros_like(dr), np.ones_like(dr), -rb / dr,
                  (rb * dv - 2.0 * dr * vb) / (dr * dv)):
            er, ev = rb + q * dr, vb + q * dv
            ok = (q >= 0.0) & (q <= 1.0) & (ev > 0.0)
            if ok.any():
                best = min(best, float((er[ok] ** 2 / ev[ok]).min()))
    return best


def polytope_support_lp(normals, offsets, direction) -> float:
    """sup <direction, x> over {x : normals @ x <= offsets} by a plain LP.

    HiGHS runs at its tightest feasibility tolerances, so that an edge
    almost orthogonal to the direction does not end the solve one vertex
    early.
    """
    d = np.asarray(direction, dtype=float)
    res = optimize.linprog(-d, A_ub=normals, b_ub=offsets,
                           bounds=[(None, None)] * d.size, method="highs",
                           options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError("support LP failed: " + res.message)
    return -float(res.fun)


def polytope_vertices_bruteforce(normals, offsets, tol=1e-9):
    """Vertices of {x : normals @ x <= offsets}: every feasible solution of
    n tight rows with an invertible n x n system, duplicates kept."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    n = normals.shape[1]
    found = []
    for rows in itertools.combinations(range(len(offsets)), n):
        a = normals[list(rows)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, offsets[list(rows)])
        if np.all(normals @ x <= offsets + tol):
            found.append(x)
    return np.array(found)


def polygon_moments(vertices):
    """Area, centroid and covariance of the convex polygon with these vertices.

    The vertices are ordered by angle about their mean, then integrated by
    the shoelace / Green's-theorem sums over the edges.
    """
    v = np.asarray(vertices, dtype=float)
    shift = v.mean(axis=0)
    v = v - shift
    v = v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))]
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    ixx = ((x * x + x * xn + xn * xn) * cross).sum() / 12.0
    iyy = ((y * y + y * yn + yn * yn) * cross).sum() / 12.0
    ixy = ((x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y) * cross).sum() / 24.0
    second = np.array([[ixx, ixy], [ixy, iyy]]) / area
    centroid = np.array([cx, cy])
    return float(area), centroid + shift, second - np.outer(centroid, centroid)


def max_affine_reference(f, pts):
    """Value and lowest maximizing piece index of f at each row of pts.

    A plain loop over points and pieces in Python floats: pieces are
    compared with ``>`` in index order, so a tie keeps the lower index. The
    quadratic part eta·|x|² + xᵀ·quad·x is read from f's fields.
    """
    quad = np.zeros((f.dimension, f.dimension)) if f.quad is None else f.quad
    values, active = [], []
    for x in np.atleast_2d(np.asarray(pts, dtype=float)).tolist():
        best, arg = -math.inf, -1
        for j, (a, y) in enumerate(zip(f.offsets.tolist(), f.slopes.tolist())):
            v = a + sum(yk * xk for yk, xk in zip(y, x))
            if v > best:
                best, arg = v, j
        q = f.eta * sum(xk * xk for xk in x)
        q += sum(x[i] * quad[i][k] * x[k]
                 for i in range(len(x)) for k in range(len(x)))
        values.append(best + q)
        active.append(arg)
    return np.array(values), np.array(active)


def max_affine_rowwise(f, pts):
    """f at each row of pts by the point-major m × p expression.

    ``(offsets + pts @ slopes.T).max(axis=1)`` plus the quadratic form
    eta·I + quad, as convexfn computed it before its piece-major table; the
    tests compare against it to show which bits the new layout keeps.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = (f.offsets[None, :] + pts @ f.slopes.T).max(axis=1)
    if f.eta == 0.0 and f.quad is None:
        return vals
    h = np.zeros((f.dimension, f.dimension))
    if f.eta:
        h += f.eta * np.eye(f.dimension)
    if f.quad is not None:
        h += f.quad
    return vals + np.einsum("ij,jk,ik->i", pts, h, pts)


def grid_argmin(f, normals, offsets, per_axis: int):
    """(x, f(x)) for a best point of f over the polytope {normals @ x <= offsets}.

    A grid of ``per_axis`` points per axis spans the polytope's bounding box
    (2n support LPs) and keeps the points inside; a generic SLSQP solve of
    the epigraph model min t + xᵀHx, a_j + y_j·x <= t, then starts from the
    best grid point. The better of the two feasible candidates is returned,
    so the value is an upper bound on the true minimum.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    n = normals.shape[1]
    eye = np.eye(n)
    highs = [polytope_support_lp(normals, offsets, e) for e in eye]
    lows = [-polytope_support_lp(normals, offsets, -e) for e in eye]
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    grid = grid[np.all(grid @ normals.T <= offsets + 1e-12, axis=1)]
    values = max_affine_rowwise(f, grid)
    best = grid[int(np.argmin(values))]
    h = f.eta * eye + (0.0 if f.quad is None else f.quad)
    cons = [{"type": "ineq", "fun": lambda z: z[n] - f.offsets - f.slopes @ z[:n]},
            {"type": "ineq", "fun": lambda z: offsets - normals @ z[:n]}]
    z0 = np.append(best, (f.offsets + f.slopes @ best).max())
    sol = optimize.minimize(lambda z: z[n] + z[:n] @ h @ z[:n], z0, method="SLSQP",
                            constraints=cons, options={"maxiter": 300, "ftol": 1e-15})
    candidates = [best]
    if np.all(normals @ sol.x[:n] <= offsets + 1e-12):
        candidates.append(sol.x[:n])
    values = max_affine_rowwise(f, np.array(candidates))
    k = int(np.argmin(values))
    return candidates[k], float(values[k])


def sequential_gamma_cover(f, body, profile, rng, eta):
    """``build_gamma_cover`` as a per-probe loop, one attempt at a time.

    The patch search, the smoothed gradient, the ball sampler and the
    subgradient table are inlined as they stood before first attempts were
    batched across probes: ``u /= norm(u, axis=1)`` for ball points and
    ``argmax`` over the piece table for subgradients. The probe net, the
    projection onto the body and the constants come from ``explore_nd``.
    Returns ``(patches, separators, failures)``; a patch is the tuple
    ``(center, direction, scale, radius, fraction, xi, relaxed)``.
    """
    from convexplore import explore_nd
    from convexplore.stats import wilson_half_width

    h = np.zeros((f.dimension, f.dimension))
    if f.eta:
        h += f.eta * np.eye(f.dimension)
    if f.quad is not None:
        h += f.quad

    def sample_ball(center, radius, m):
        u = rng.standard_normal((m, center.size))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return center + u * (radius * rng.uniform(0.0, 1.0, m)
                             ** (1.0 / center.size))[:, None]

    def subgradients(pts):
        active = np.argmax(f.slopes @ pts.T + f.offsets[:, None], axis=0)
        if f.eta == 0.0 and f.quad is None:
            return f.slopes[active]
        return f.slopes[active] + 2.0 * pts @ h

    def search(center, radius, delta, xi):
        for _ in range(explore_nd.PATCH_ATTEMPTS):
            z = sample_ball(center, radius, 1)[0]
            g = subgradients(sample_ball(z, delta, explore_nd.GRAD_SAMPLES)
                             ).mean(axis=0)
            t = float(np.linalg.norm(g))
            if t < 1e-13:
                continue
            theta = g / t
            pts = sample_ball(z, delta, explore_nd.PATCH_SAMPLES)
            dev = np.linalg.norm(subgradients(pts) - t * theta, axis=1)
            hits = int((dev <= xi * t).sum())
            fraction = hits / explore_nd.PATCH_SAMPLES
            if fraction >= 0.5 + 3.0 * wilson_half_width(
                    hits, explore_nd.PATCH_SAMPLES):
                return z, theta, t, delta, fraction, xi
        return None

    n = body.dimension
    cheb_center, cheb_radius = body.largest_inscribed_ball()
    r_target = profile.patch_ball_radius(n)
    lipschitz = f.lipschitz_bound(
        float(np.linalg.norm(body.ball_center) + body.ball_radius))
    patches, separators, failures = [], [], 0
    for phi in explore_nd._unit_net(n, explore_nd.PHI_COUNT):
        probe = phi / 8.0
        if body.contains(probe):
            lam = min(1.0, r_target / cheb_radius)
            ball_center = (1.0 - lam) * (phi / 32.0) + lam * cheb_center
            ball_radius = lam * cheb_radius
            delta = min(profile.patch_delta(n, ball_radius, lipschitz, eta),
                        ball_radius)
            xi = profile.xi(n)
            for round_ in range(explore_nd.XI_RELAX_ROUNDS + 1):
                found = search(ball_center, ball_radius, delta, xi)
                if found is not None:
                    patches.append(found + (round_ > 0,))
                    break
                if round_ == explore_nd.XI_RELAX_ROUNDS:
                    failures += 1
                xi *= 2.0
        else:
            gap = probe - explore_nd._project_onto_body(body, probe)
            norm = float(np.linalg.norm(gap))
            if norm >= 1e-12:
                separators.append(gap / norm)
    return patches, separators, failures
