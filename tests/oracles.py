"""Independent oracles used to freeze expected values in the tests.

Everything here is computed from first principles (closed forms, dense
grids, generic QP solvers), never through the library's own code paths,
so the tests compare two independent derivations.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def rational_interval_mass(weights, ends, predicate, breakpoints) -> float:
    """The exact 1-D event mass with the weights summed as Fractions.

    ``weights`` are Fractions and ``ends`` the (lo, hi) of each leaf, lo ==
    hi for an atom. The cells and each leaf's event share are found as the
    library finds them, from cumulative cell lengths between the leaves'
    ends and ``breakpoints``; only the final sum differs. This is the former
    rational sum, kept as the reference for the float one.
    """
    lo, hi = np.array(ends, dtype=float).T
    atom = lo == hi
    xs = np.unique(np.concatenate([lo[~atom], hi[~atom]]))
    if xs.size:
        xs = np.unique(np.concatenate(
            [xs, breakpoints[(breakpoints > xs[0]) & (breakpoints < xs[-1])]]))
    k = int(atom.sum())
    hit = predicate(np.concatenate([lo[atom], 0.5 * (xs[:-1] + xs[1:])])[:, None])
    cells = np.diff(xs)
    on = np.concatenate([[0.0], np.cumsum(np.where(hit[k:], cells, 0.0))])
    off = np.concatenate([[0.0], np.cumsum(np.where(hit[k:], 0.0, cells))])
    a, b = np.searchsorted(xs, lo[~atom]), np.searchsorted(xs, hi[~atom])
    share = np.empty(lo.size)
    share[atom] = hit[:k]
    share[~atom] = (on[b] - on[a]) / (on[b] - on[a] + off[b] - off[a])
    return float(sum(w * Fraction(s) for w, s in zip(weights, share.tolist())))


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


def hypothesis_test_reference(f, g, eps, mu, noise_sigma, trials, rng,
                              level=0.05) -> dict:
    """``bandit.hypothesis_test`` as it was before its threshold, power,
    size and bin counts were read from sorted statistics: numpy's quantile,
    a sort of the pool and two ``np.histogram`` calls. It draws through
    ``sample_reference``, whose rows come grouped by leaf."""
    from convexplore.bandit import _sorted_quantiles

    def stats(h, m):
        xs = sample_reference(mu, m, rng)
        fx = np.asarray(f(xs), float)
        hx = fx if h is f else np.asarray(h(xs), float)
        y = hx + (rng.normal(0.0, noise_sigma, m) if noise_sigma > 0 else 0.0)
        return np.abs(y - fx) / np.maximum(eps, fx)

    calib = stats(f, trials)
    threshold = float(np.quantile(calib, 1.0 - level, method="higher"))
    s_null = stats(f, trials)
    s_alt = stats(g, trials)
    power = float((s_alt > threshold).mean())
    size = float((s_null > threshold).mean())
    pooled = np.sort(np.concatenate([s_null, s_alt]))
    edges = np.unique(_sorted_quantiles(pooled, np.linspace(0.0, 1.0, 33)))
    tv = 0.0
    if edges.size >= 2:
        p_hist, _ = np.histogram(s_null, bins=edges)
        q_hist, _ = np.histogram(s_alt, bins=edges)
        tv = 0.5 * float(np.abs(p_hist / trials - q_hist / trials).sum())
    return {
        "power": power,
        "size": size,
        "level": level,
        "threshold": threshold,
        "tv_lower_estimate": tv,
        "trials": trials,
        "se_power": math.sqrt(max(power * (1.0 - power), 1e-12) / trials),
    }


def segment_event_mass(f, g, lo: float, hi: float, gap_fn, grid: int = 10000):
    """Mass of {|f-g| > gap(x)} under Uniform[lo, hi] on a dense grid."""
    xs = np.linspace(lo, hi, grid)[:, None]
    fv, gv = f.value(xs), g.value(xs)
    return float(np.mean(np.abs(fv - gv) > gap_fn(xs.ravel(), fv)))


def records_to_csv_reference(per_seed_records) -> str:
    """Game records as CSV, every field through ``np.atleast_1d`` or
    ``float`` before ``repr``; rows sorted by (seed, t)."""
    lines = ["seed,t,x,loss,r_t,v_t,cum_regret,cum_info,action_kind"]
    for seed in sorted(per_seed_records):
        for rec in per_seed_records[seed]:
            x = ";".join(repr(float(c)) for c in np.atleast_1d(rec.x))
            lines.append(",".join([
                str(seed), str(rec.t), x, repr(float(rec.loss)),
                repr(float(rec.r_t)), repr(float(rec.v_t)),
                repr(float(rec.cum_regret)), repr(float(rec.cum_info)),
                rec.action_kind]))
    return "\n".join(lines) + "\n"


def round_quantities(sset, weights, t: int, x):
    """f_t, f_{i,t}, r_t and v_t at one point by direct enumeration.

    Every scenario's round-t loss is evaluated at x and at the net points
    one point at a time, under the scenario ``weights``. Returns (f, fi, r,
    v) with fi a dict over the net indices that carry posterior mass.
    """
    x = np.asarray(x, dtype=float)
    w = [float(a) for a in weights]
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


def covering_radius_reference(points, probes):
    """Largest distance from a probe to its nearest net point, from the whole
    probes × K × n array of differences."""
    d2 = ((probes[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1).max()))


def pushforward(sset, weights):
    """alpha over net indices: each scenario's weight added at its optimal
    net index, in scenario order from zero."""
    alpha = np.zeros(sset.net.size)
    np.add.at(alpha, sset.istar, weights)
    return alpha


def accounted_rv(sset, weights, values):
    """r_t and v_t of one round under the scenario ``weights`` at the
    columns of ``values`` (S × c, the net points first), from
    ``bandit.round_accounting``."""
    from convexplore import bandit

    r, v = bandit.round_accounting(sset, weights[None],
                                   pushforward(sset, weights)[None],
                                   values[None])
    return r[0], v[0]


def plan_expectations(sset, weights, values, plan):
    """E r_t and E v_t of a two-point plan, mixed as ``run_game`` does.

    The round is accounted on the net columns of ``values`` followed by
    the plan's losses at x* and xbar; xbar weighs p_explore.
    """
    K = sset.net.size
    r, v = accounted_rv(sset, weights, np.hstack([values[:, :K], plan.losses]))
    p = plan.p_explore
    return tuple(float(p * q[K + 1] + (1.0 - p) * q[K]) for q in (r, v))


def surrogate_rows_reference(weights, istar, values):
    """f_t and the f_{i,t} rows of a value table by a loop per net index.

    Row i sums (w_s / W_i)·values[s] from zero in scenario order over the
    scenarios with istar[s] == i and w_s > 0, where W_i sums their weights
    from zero in scenario order (the pushforward alpha_i); f_t sums
    w_s·values[s] the same way. Indices without mass get no row. Returns
    (f, fi, support).
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
            mass = 0.0
            for s in members:
                mass += w[s]
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
    quadratic part xᵀHx is read from f's ``form`` H.
    """
    form = (np.zeros((f.dimension, f.dimension)) if f.form is None
            else f.form).tolist()
    values, active = [], []
    for x in np.atleast_2d(np.asarray(pts, dtype=float)).tolist():
        best, arg = -math.inf, -1
        for j, (a, y) in enumerate(zip(f.offsets.tolist(), f.slopes.tolist())):
            v = a + sum(yk * xk for yk, xk in zip(y, x))
            if v > best:
                best, arg = v, j
        q = sum(x[i] * form[i][k] * x[k]
                for i in range(len(x)) for k in range(len(x)))
        values.append(best + q)
        active.append(arg)
    return np.array(values), np.array(active)


def max_affine_rowwise(f, pts):
    """f at each row of pts by the point-major m × p expression.

    ``(offsets + pts @ slopes.T).max(axis=1)`` plus the quadratic form
    ``f.form``, as convexfn computed it before its piece-major table; the
    tests compare against it to show which bits the new layout keeps.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = (f.offsets[None, :] + pts @ f.slopes.T).max(axis=1)
    if f.form is None:
        return vals
    return vals + np.einsum("ij,jk,ik->i", pts, f.form, pts)


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
    h = np.zeros((n, n)) if f.form is None else f.form
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


def swept_argmin(f, body):
    """``convexfn.argmin`` of a piecewise-linear f as it ran before its
    certificate: the epigraph LP, then a sweep that minimises one axis at a
    time over the widened optimal face {f <= t* + 1e-9·max(1, |t*|)}.
    Returns ``(vertex, swept, binding, weights)``: the LP's optimum, the
    sweep's point, and the epigraph rows with multipliers above 1e-9 with
    those multipliers."""
    from convexplore import _highs

    n = f.dimension
    if n == 1:
        lo, hi = body.interval_bounds()
        normals, offsets = np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    else:
        normals, offsets = body.normals, body.offsets
    a_ub = np.vstack([np.hstack([f.slopes, -np.ones((f.piece_count, 1))]),
                      np.hstack([normals, np.zeros((normals.shape[0], 1))])])
    b_ub = np.concatenate([-f.offsets, offsets])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    status, z = _highs.solve(c, a_ub, b_ub)
    assert status == _highs.OPTIMAL
    weights = -_highs.row_duals()
    binding, weights = a_ub[weights > 1e-9], weights[weights > 1e-9]
    vertex, x = z[:n], z[:n]
    upper = np.full(n + 1, np.inf)
    upper[-1] = z[-1] + 1e-9 * max(1.0, abs(z[-1]))
    for axis in range(n):
        c_axis = np.zeros(n + 1)
        c_axis[axis] = 1.0
        status, z = _highs.solve(c_axis, a_ub, b_ub, upper=upper)
        if status != _highs.OPTIMAL:
            break
        x = z[:n]
        row = np.zeros(n + 1)
        row[axis] = 1.0
        a_ub = np.vstack([a_ub, row])
        b_ub = np.append(b_ub, z[axis] + 1e-10)
    return vertex, x, binding, weights


def certified_patches_reference(f, centers, placement_radius, delta, xi):
    """``explore_nd.find_stable_gradient_patch`` as loops over balls,
    candidates and pieces in Python floats.

    A candidate's piece values are its ball centre's a_j + b_j·c plus the
    shift's b_j·(R·row), and its ĝ is b_k + 2Hc + 2H(R·row), summed in that
    order. Each dot product runs in the order ``geometry.row_dots`` uses, so
    the result has the search's bits. Returns ``(patches, failures)``; a
    patch is the tuple ``(center, direction, scale)``.
    """
    import math

    from convexplore import explore_nd

    n = f.dimension
    a, b = f.offsets.tolist(), f.slopes.tolist()
    h = None if f.form is None else f.form.tolist()
    p = len(a)

    def dot(u, v):
        total = u[0] * v[0]
        for i in range(1, len(u)):
            total += u[i] * v[i]
        return total

    r = max((math.sqrt(dot(c, c)) for c in centers.tolist()), default=0.0) \
        + placement_radius + delta
    tol = 1e-12 * (max(abs(x) for x in a)
                   + (1 + r) * f.lipschitz_bound(1 + r))
    gaps = [[math.sqrt(dot(d, d)) for d in
             ([x - y for x, y in zip(bj, bk)] for bj in b)] for bk in b]
    floor = 2 * f.form_norm * delta + tol
    shifts = [[placement_radius * ri for ri in row]
              for row in explore_nd._candidate_rows(n).tolist()]
    patches, failures = [], 0
    for c in centers.tolist():
        at_c = [dot(bj, c) + aj for aj, bj in zip(a, b)]
        kept = {}  # top piece -> its first certified candidate
        for shift in shifts:
            lin = [at_c[j] + dot(b[j], shift) for j in range(p)]
            best = max(lin)
            k = lin.index(best)
            spread = max([gaps[k][j] for j in range(p) if gaps[k][j] > 0
                          and best - lin[j] <= delta * gaps[k][j] + tol],
                         default=0.0)
            g = list(b[k])
            if h is not None:
                g = [g[i] + 2.0 * dot(c, h[i]) + 2.0 * dot(shift, h[i])
                     for i in range(n)]
            t = math.sqrt(dot(g, g))
            if (k not in kept and t >= 1e-13
                    and spread + floor <= xi * (t - tol)):
                z = [ci + si for ci, si in zip(c, shift)]
                kept[k] = (np.array(z), np.array(g) / t, t)
        failures += not kept
        patches += [kept[k] for k in sorted(kept)]
    return patches, failures


def sequential_gamma_cover(f, body, profile, eta, centroid):
    """``build_gamma_cover`` with its placement balls searched by
    ``certified_patches_reference`` and its separators found one probe at
    a time. The balls move from phi/32 toward B(centroid, R'), R' the
    centroid's least facet slack, with the cover's arithmetic. The probe
    net, the projection onto the body and the constants come from
    ``explore_nd``. Returns ``(patches, separators, failures)``, each patch
    the reference's ``(center, direction, scale)``."""
    from convexplore import explore_nd

    n = body.dimension
    slack = float(np.min(body.offsets - body.normals @ centroid))
    r_target = profile.patch_ball_radius(n)
    lipschitz = f.lipschitz_bound(
        float(np.linalg.norm(body.ball_center) + body.ball_radius))
    lam = min(1.0, r_target / slack)
    ball_radius = lam * slack
    delta = min(profile.patch_delta(n, ball_radius, lipschitz, eta),
                ball_radius)
    net = explore_nd._unit_net(n, explore_nd.PHI_COUNT)
    inside = body.contains(net / 8.0)
    centers = (1.0 - lam) * (net[inside] / 32.0) + lam * centroid
    patches, failures = certified_patches_reference(
        f, centers, ball_radius, delta, profile.xi(n))
    separators = []
    for phi in net[~inside]:
        probe = phi / 8.0
        gap = probe - explore_nd._project_onto_body(body, probe)
        norm = float(np.linalg.norm(gap))
        if norm >= 1e-12:
            separators.append(gap / norm)
    return patches, separators, failures


def reference_game(scenario_set, policy="two_point", seed=0, likelihood=None,
                   params=None):
    """``bandit.run_game`` as a loop with one whole loss table per round.

    Each round evaluates every scenario's loss on all candidates, appends
    the two-point plan's losses at x* and xbar, forms f_t and every
    f_{i,t} row there (``surrogates``) and reads r_t and v_t off the table
    with matrix products. E r_t and E v_t average the net columns under
    the play distribution, or mix the columns of x* and xbar. The play
    itself (two-point plans, posterior draws, the posterior update and the
    measure cache) comes from ``bandit``. Returns (records, summary), with
    the summary holding the counters, ``c_agg``, the true scenario, the sum
    of v_t and the final regrets against the net and against every
    candidate, each candidate's loss added round after round.
    """
    from convexplore import bandit

    likelihood = likelihood if likelihood is not None else bandit.LikelihoodModel()
    params = params if params is not None else bandit.GameParams()
    rng = np.random.default_rng(seed)
    horizon, net = scenario_set.horizon, scenario_set.net
    K = net.size
    true_s = int(rng.choice(scenario_set.size, p=scenario_set.prior))
    pool = scenario_set.body.sample_uniform(bandit.POOL_SAMPLES, rng)
    candidates = np.vstack([net.points, pool])
    cache = bandit._MeasureCache(scenario_set, params)
    weights = scenario_set.prior.copy()
    records, expected = [], []
    pool_cum = np.zeros(candidates.shape[0])
    cum_loss_true = cum_info = 0.0
    fallbacks = relaxed_rounds = 0
    for t in range(1, horizon + 1):
        points = candidates
        table = bandit.loss_values(scenario_set, t, candidates)
        plan = None
        if policy == "two_point":
            plan = bandit.two_point_action(scenario_set, weights, t,
                                           candidates, table, cache, params,
                                           rng)
            fallbacks += plan.fallback
            relaxed_rounds += plan.relaxed
            # x* and xbar (x* twice without xbar) join as the last columns
            star = candidates.shape[0]
            xbar = plan.xstar if plan.xbar is None else plan.xbar
            points = np.vstack([candidates, plan.xstar, xbar])
            table = np.hstack([table, plan.losses])
        f, fi, support = bandit.surrogates(scenario_set, weights, table)
        alpha = pushforward(scenario_set, weights)
        mass = alpha[support]
        r = f - float(mass @ fi[np.arange(support.size), support])
        v = mass @ (f - fi) ** 2
        if plan is not None and not plan.fallback:
            col, kind = plan.sample(rng)
            col += star
            p = plan.p_explore
            exp_r = p * r[star + 1] + (1.0 - p) * r[star]
            exp_v = p * v[star + 1] + (1.0 - p) * v[star]
        else:
            if policy == "uniform":
                col, kind = int(rng.integers(K)), "uniform"
                play = np.full(K, 1.0 / K)
            else:
                col = bandit.thompson_action(alpha, rng)
                kind = "thompson"
                play = alpha
            exp_r, exp_v = float(play @ r[:K]), float(play @ v[:K])
        losses = table[:, col]
        loss_true = float(losses[true_s])
        y_t = loss_true
        if likelihood.kind == "gaussian":
            y_t = loss_true + float(rng.normal(0.0, likelihood.sigma))
        weights = bandit.posterior_update(weights, t, y_t, losses, likelihood)
        pool_cum += table[true_s, :pool_cum.size]
        cum_loss_true += loss_true
        cum_info += float(v[col])
        records.append(bandit.RoundRecord(
            t, points[col].copy(), float(y_t), float(r[col]),
            float(v[col]), cum_loss_true - float(pool_cum[:K].min()),
            cum_info, kind))
        expected.append((float(exp_r), float(exp_v)))
    floor = 1.0 / math.sqrt(horizon)
    total_v = sum(ev for _, ev in expected)
    c_agg = (sum(max(er - floor, 0.0) for er, _ in expected)
             / math.sqrt(horizon * total_v) if total_v > 0.0 else None)
    regret_net = cum_loss_true - float(pool_cum[:K].min())
    regret_pool = cum_loss_true - float(pool_cum.min())
    summary = {"fallbacks": fallbacks, "relaxed_rounds": relaxed_rounds,
               "measure_builds": cache.builds,
               "build_failures": cache.failures, "c_agg": c_agg,
               "true_scenario": true_s, "sum_v": cum_info,
               "final_regret_net": regret_net, "final_regret_pool": regret_pool,
               "net_regret_dominates": regret_net + math.sqrt(horizon) + 1e-9
               >= regret_pool}
    return records, summary


# -- measure sampling as it was before leaves were cached, with rows left
# grouped by leaf and chords from one rate per facet; kept (as functions of
# the measure or body) so the tests can hold today's draws to these bits.

def flatten_reference(mu):
    """``ExplorationMeasure.flatten``, recomputed on every call."""
    from convexplore.explore1d import Pushforward

    out = []

    def walk(measure, scale, outer_map):
        for w, comp in zip(measure.weights, measure.components):
            if w == 0:
                continue
            if isinstance(comp, Pushforward):
                amap = comp.map if outer_map is None else outer_map.compose(comp.map)
                walk(comp.inner, scale * w, amap)
            else:
                out.append((scale * w, comp, outer_map))

    walk(mu, 1.0, None)
    return out


def sample_reference(mu, m, rng):
    """``ExplorationMeasure.sample``: one draw per leaf, stacked in leaf
    order."""
    if m <= 0:
        raise ValueError("m must be positive")
    leaves = flatten_reference(mu)
    probs = np.array([w for w, _, _ in leaves])
    probs /= probs.sum()
    counts = rng.multinomial(m, probs)
    return np.vstack([sample_leaf_reference(comp, amap, k, rng)
                      for (_, comp, amap), k in zip(leaves, counts) if k])


def sample_permuted_reference(mu, m, rng):
    """``ExplorationMeasure.sample`` as it was when it returned one
    permutation of its stacked rows. On a measure without fiber lifts (every
    1-D one) the stacked rows are ``sample_reference``'s, so this is that
    code verbatim."""
    pts = sample_reference(mu, m, rng)
    return pts[rng.permutation(pts.shape[0])]


def event_probability_reference(mu, predicate, m, rng):
    """``ExplorationMeasure.event_probability``: atoms exact, the rest
    sampled leaf by leaf with a Wilson interval."""
    from convexplore.explore1d import PointMass
    from convexplore.stats import wilson_interval

    atom_true, sampled = 0.0, []
    for w, comp, amap in flatten_reference(mu):
        if isinstance(comp, PointMass):
            if bool(predicate(sample_leaf_reference(comp, amap, 1, rng))[0]):
                atom_true += w
        else:
            sampled.append((w, comp, amap))
    cont_weight = sum(w for w, _, _ in sampled)
    if cont_weight < 1e-15:
        return atom_true, atom_true, atom_true
    probs = np.array([w for w, _, _ in sampled]) / cont_weight
    counts = rng.multinomial(m, probs)
    hits = sum(int(predicate(sample_leaf_reference(comp, amap, k, rng)).sum())
               for (_, comp, amap), k in zip(sampled, counts) if k)
    low, high = wilson_interval(hits, m)
    return (atom_true + cont_weight * hits / m,
            atom_true + cont_weight * low,
            atom_true + cont_weight * high)


def sample_leaf_reference(comp, amap, m, rng):
    """m draws from one leaf, pushed through its map."""
    from convexplore.explore1d import (FiberLift, PointMass, UniformBall,
                                       UniformSegment)
    from convexplore.geometry import sample_ball

    if isinstance(comp, PointMass):
        pts = np.tile(comp.point, (m, 1))
    elif isinstance(comp, UniformSegment):
        pts = (comp.lo + (comp.hi - comp.lo) * rng.random(m))[:, None]
    elif isinstance(comp, UniformBall):
        pts = sample_ball(comp.center, comp.radius, m, rng)
    elif isinstance(comp, FiberLift):
        pts = sample_fiber_lift_reference(comp, m, rng)
    else:
        raise TypeError(f"unknown component {type(comp).__name__}")
    # AffineMap.__call__ on a batch, as it was
    return pts if amap is None else pts @ amap.matrix.T + amap.offset


def sample_fiber_lift_reference(lift, m, rng):
    """A fiber lift's draws: base draws, then uniform on each chord."""
    from convexplore.errors import InfeasibleBodyError

    anchors = lift.anchor + sample_reference(lift.base, m, rng) @ lift.frame.T
    t_lo, t_hi = chord_bounds_columns_reference(lift.host, anchors,
                                                lift.direction)
    short = (t_hi - t_lo) <= 1e-12
    off = ~lift.host.contains(anchors[short] + t_lo[short, None] * lift.direction)
    if off.any():
        raise InfeasibleBodyError(f"zero-length fiber off the host for "
                                  f"{int(off.sum())} of {m} base draws")
    w = t_lo + (t_hi - t_lo) * rng.random(m)
    return anchors + w[:, None] * lift.direction


def chord_bounds_reference(body, points, directions):
    """``ConvexBody.chord_bounds`` as it was with (m, facets) matmuls of the
    rows and their directions, reduced row by row. Its bits depend on the
    batch, so it now bounds the chords rather than fixing their bits."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    D = np.asarray(directions, dtype=float)
    if D.ndim == 1:
        D = np.broadcast_to(D, X.shape)
    m = X.shape[0]
    t_lo = np.full(m, -np.inf)
    t_hi = np.full(m, np.inf)
    if body.has_halfspaces:
        ad = D @ body.normals.T
        slack = body.offsets[None, :] - X @ body.normals.T
        pos = ad > 1e-14
        neg = ad < -1e-14
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = slack / ad
        t_hi = np.minimum(t_hi, np.where(pos, ratios, np.inf).min(axis=1))
        t_lo = np.maximum(t_lo, np.where(neg, ratios, -np.inf).max(axis=1))
        t_lo[(~pos & ~neg & (slack < -1e-9)).any(axis=1)] = np.inf
    diff = X - body.ball_center
    mid = np.einsum("ij,ij->i", D, diff)
    disc = np.clip(mid ** 2 - (np.einsum("ij,ij->i", diff, diff)
                               - body.ball_radius ** 2), 0.0, None)
    root = np.sqrt(disc)
    t_lo = np.maximum(t_lo, -mid - root)
    t_hi = np.minimum(t_hi, -mid + root)
    return np.minimum(t_lo, t_hi), t_hi


def _dots(a, b):
    """Row-wise a·b, the products added one column after another."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + a[..., i] * b[..., i]
    return out


def chord_bounds_columns_reference(body, points, direction):
    """``ConvexBody.chord_bounds``: one rate per facet, and each slack and
    ball term summed column by column in index order, on whole columns."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    d = np.asarray(direction, dtype=float)
    m = X.shape[0]
    t_lo = np.full(m, -np.inf)
    t_hi = np.full(m, np.inf)
    if body.has_halfspaces:
        miss = np.zeros(m, dtype=bool)
        for a, b, rate in zip(body.normals, body.offsets, _dots(body.normals, d)):
            slack = b - _dots(X, a)
            if rate > 1e-14:
                t_hi = np.minimum(t_hi, slack / rate)
            elif rate < -1e-14:
                t_lo = np.maximum(t_lo, slack / rate)
            else:
                miss |= slack < -1e-9
        t_lo[miss] = np.inf
    diff = X - body.ball_center
    mid = _dots(diff, d)
    root = np.sqrt(np.maximum(mid * mid - (_dots(diff, diff) - body.ball_radius ** 2),
                              0.0))
    t_lo = np.maximum(t_lo, -mid - root)
    t_hi = np.minimum(t_hi, -mid + root)
    return np.minimum(t_lo, t_hi), t_hi


def chord_bounds_rowwise(body, points, direction):
    """``ConvexBody.chord_bounds`` one row at a time in Python floats: every
    dot product summed in index order, facet after facet. ``lesser`` and
    ``greater`` are numpy's ``minimum`` and ``maximum`` on two floats: the
    second one on a tie (so the sign of a zero follows it), NaN from either."""
    def dot(a, b):
        s = a[0] * b[0]
        for x, y in zip(a[1:], b[1:]):
            s = s + x * y
        return s

    def lesser(a, b):
        return a if a < b or a != a else b

    def greater(a, b):
        return a if a > b or a != a else b

    d = np.asarray(direction, dtype=float).tolist()
    normals, offsets = ((body.normals.tolist(), body.offsets.tolist())
                        if body.has_halfspaces else ([], []))
    rates = [dot(a, d) for a in normals]
    center = body.ball_center.tolist()
    r2 = float(body.ball_radius) ** 2
    lows, highs = [], []
    for row in np.atleast_2d(np.asarray(points, dtype=float)).tolist():
        lo, hi, miss = -math.inf, math.inf, False
        for a, b, rate in zip(normals, offsets, rates):
            slack = b - dot(row, a)
            if rate > 1e-14:
                hi = lesser(hi, slack / rate)
            elif rate < -1e-14:
                lo = greater(lo, slack / rate)
            elif slack < -1e-9:
                miss = True
        if miss:
            lo = math.inf
        diff = [x - c for x, c in zip(row, center)]
        mid = dot(diff, d)
        root = math.sqrt(greater(mid * mid - (dot(diff, diff) - r2), 0.0))
        lo = greater(lo, -mid - root)
        hi = lesser(hi, -mid + root)
        lows.append(lesser(lo, hi))
        highs.append(hi)
    return np.array(lows, dtype=float), np.array(highs, dtype=float)


def highs_lp_fresh(c, a_ub, b_ub, lower, upper):
    """``_highs._lp`` as it stood with one HiGHS solver built, configured
    and destroyed per solve."""
    from scipy.optimize._highspy import _core

    from convexplore._highs import _OPTIONS, FAILED, OPTIMAL, UNBOUNDED
    n, m = c.size, a_ub.shape[0]
    cols, rows = np.nonzero(a_ub.T)  # column-wise nonzeros, rows sorted
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lower, upper
    lp.row_lower_, lp.row_upper_ = np.full(m, -np.inf), b_ub
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a_ub[rows, cols]
    highs = _core._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    highs.passModel(lp)
    if highs.run() != _core.HighsStatus.kError:
        status = highs.getModelStatus()
        if status == _core.HighsModelStatus.kOptimal:
            return OPTIMAL, np.array(highs.getSolution().col_value)
        if status == _core.HighsModelStatus.kUnbounded:
            return UNBOUNDED, None
    return FAILED, None
