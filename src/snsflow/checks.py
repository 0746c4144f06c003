"""Verification battery: mesh audits, quadrature exactness, trilinear-form
identities, a brute-force dense assembly oracle, convergence studies, and the
per-sample splitting equivalence check.

Everything here is an independent second route to results the production
assembly computes; the battery deliberately avoids the vectorized code paths
(plain Python loops, SVD null spaces) so that a defect in one route cannot
hide in the other.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import assembly, manufactured, noise as noise_mod, solvers, uq
from .assembly import p1_shape, p2_shape
from .mesh import DofMap, TriMesh, build_dof_map, build_structured_mesh, triangle_nodes


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"check={self.name} status={status} {self.detail}"


# ---------------------------------------------------------------------------
# mesh audit

def audit_mesh(mesh: TriMesh) -> list[str]:
    """Return a list of violated mesh invariants (empty = healthy)."""
    problems = []
    v = mesh.vertices
    if not np.all((v >= -1e-14) & (v <= 1 + 1e-14)):
        problems.append("vertex coordinates leave the unit square")
    areas = mesh.signed_areas()
    if not np.all(areas > 0):
        problems.append("non-positive triangle orientation")
    counts = np.bincount(mesh.triangle_edges.ravel(), minlength=mesh.n_edges)
    interior = ~mesh.boundary_edge_flags
    if not np.all(counts[interior] == 2):
        problems.append("interior edge not shared by exactly 2 triangles")
    if not np.all(counts[mesh.boundary_edge_flags] == 1):
        problems.append("boundary edge not owned by exactly 1 triangle")
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_triangles
    if euler != 1:
        problems.append(f"Euler relation V-E+T={euler} != 1")
    n = mesh.n
    if (mesh.n_vertices, mesh.n_triangles) != ((n + 1) ** 2, 2 * n * n):
        problems.append("structured counts V=(n+1)^2, T=2n^2 violated")
    if abs(mesh.h - math.sqrt(2.0) / n) > 1e-14:
        problems.append(f"mesh size h={mesh.h} != sqrt(2)/n")
    return problems


# ---------------------------------------------------------------------------
# quadrature exactness

def reference_monomial_integral(a: int, b: int) -> float:
    """int over the reference triangle of x^a y^b = a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def quadrature_max_error(rule: assembly.QuadratureRule) -> float:
    """Largest relative error over all monomials up to the declared degree."""
    worst = 0.0
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            exact = reference_monomial_integral(a, b)
            # weights sum to 1 on a unit-area element; reference area is 1/2
            approx = 0.5 * np.sum(rule.weights * x ** a * y ** b)
            worst = max(worst, abs(approx - exact) / abs(exact))
    return worst


def velocity_block(dofs: DofMap, data: np.ndarray):
    """The velocity-velocity block of an operator given as saddle-pattern data."""
    n_u = dofs.n_velocity_dofs
    return dofs.pattern.matrix(data)[:n_u, :n_u]


# ---------------------------------------------------------------------------
# pointwise divergence-free fields (the trilinear identities need them)

def divergence_constraint_matrix(mesh: TriMesh, dofs: DofMap) -> np.ndarray:
    """Rows enforcing div(u) = 0 at the 3 vertices of every element.

    The divergence of a P2 field is linear on each element, so three point
    constraints per element pin it exactly.
    """
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    _, grad_ref = p2_shape(corners)
    tn = triangle_nodes(dofs)
    nn = dofs.n_scalar_nodes
    tri = mesh.triangles
    x0 = mesh.vertices[tri[:, 0]]
    e1 = mesh.vertices[tri[:, 1]] - x0
    e2 = mesh.vertices[tri[:, 2]] - x0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rows = np.zeros((3 * mesh.n_triangles, dofs.n_velocity_dofs))
    for t in range(mesh.n_triangles):
        inv_jt = np.array([[e2[t, 1], -e1[t, 1]], [-e2[t, 0], e1[t, 0]]]) / det[t]
        for q in range(3):
            grad = grad_ref[q] @ inv_jt.T
            r = 3 * t + q
            rows[r, tn[t]] = grad[:, 0]
            rows[r, nn + tn[t]] = grad[:, 1]
    return rows


def divergence_free_velocity_fields(mesh: TriMesh, dofs: DofMap, count: int,
                                    seed: int = 0) -> tuple[list[np.ndarray], int]:
    """Random fields with pointwise zero divergence and zero boundary values.

    Returns (fields, dimension of the constrained space). On very coarse
    meshes the space can be empty (dimension 0 for n <= 2 on this family), in
    which case the returned fields are zero.
    """
    div_rows = divergence_constraint_matrix(mesh, dofs)
    pins = np.eye(dofs.n_velocity_dofs)[dofs.dirichlet_mask]
    constraints = np.vstack([div_rows, pins])
    basis = scipy.linalg.null_space(constraints, rcond=1e-10)
    dim = basis.shape[1]
    rng = np.random.default_rng(seed)
    if dim == 0:
        return [np.zeros(dofs.n_velocity_dofs) for _ in range(count)], 0
    coeffs = rng.standard_normal((dim, count))
    fields = [basis @ coeffs[:, k] for k in range(count)]
    return fields, dim


def trilinear_identity_defects(mesh: TriMesh, dofs: DofMap, w: np.ndarray,
                               rng: np.random.Generator) -> tuple[float, float]:
    """Normalized defects of skew-symmetry and self-annihilation around w.

    Both vanish exactly when w is pointwise divergence-free and zero on the
    boundary; the normalization uses L2 field norms.
    """
    n1 = velocity_block(dofs, assembly.assemble_convection_linearized(mesh, dofs, w)[0])
    norm_w = max(manufactured.velocity_l2_norm(dofs, w), 1e-300)
    skew = annih = 0.0
    for _ in range(3):
        u = rng.standard_normal(dofs.n_velocity_dofs)
        v = rng.standard_normal(dofs.n_velocity_dofs)
        nu_ = manufactured.velocity_l2_norm(dofs, u)
        nv_ = manufactured.velocity_l2_norm(dofs, v)
        skew = max(skew, abs(v @ (n1 @ u) + u @ (n1 @ v)) / (norm_w * nu_ * nv_))
        annih = max(annih, abs(v @ (n1 @ v)) / (norm_w * nv_ ** 2))
    return skew, annih


def trilinear_value_defect(mesh: TriMesh, dofs: DofMap) -> float:
    """|assembled - analytic| for polynomial triples with value 1/4.

    Pins the sign and scale of both convection linearizations (the identity
    checks alone are blind to a global sign flip).
    """
    w = manufactured.interpolate_velocity(dofs, lambda x, y: (y, 0.0 * x))
    u = manufactured.interpolate_velocity(dofs, lambda x, y: (x, 0.0 * y))
    v = u.copy()
    n1, _ = assembly.assemble_convection_linearized(mesh, dofs, w)
    defect = abs(v @ (velocity_block(dofs, n1) @ u) - 0.25)
    u2 = manufactured.interpolate_velocity(dofs, lambda x, y: (0.0 * x, y))
    _, n2 = assembly.assemble_convection_linearized(mesh, dofs, w)
    n2 = velocity_block(dofs, n2)
    defect = max(defect, abs(v @ (n2 @ u2) - 0.25))
    return defect


# ---------------------------------------------------------------------------
# dense brute-force assembly oracle (plain loops, elevated quadrature)

class DenseOracle:
    """Element-by-element dense assembly with a degree-10 rule."""

    def __init__(self, mesh: TriMesh, dofs: DofMap):
        self.mesh, self.dofs = mesh, dofs
        rule = assembly.triangle_rule_collapsed(assembly.ELEVATED_QUADRATURE_DEGREE)
        self.points, self.weights = rule.points, rule.weights
        self.phi2, self.grad_ref = p2_shape(rule.points)
        self.phi1 = p1_shape(rule.points)
        self.tn = triangle_nodes(dofs)

    def _element(self, t: int):
        tri = self.mesh.triangles[t]
        x0 = self.mesh.vertices[tri[0]]
        e1 = self.mesh.vertices[tri[1]] - x0
        e2 = self.mesh.vertices[tri[2]] - x0
        det = e1[0] * e2[1] - e1[1] * e2[0]
        inv_jt = np.array([[e2[1], -e1[1]], [-e2[0], e1[0]]]) / det
        area = 0.5 * det
        return x0, e1, e2, inv_jt, area

    def viscous(self, nu: float) -> np.ndarray:
        nn = self.dofs.n_scalar_nodes
        out = np.zeros((2 * nn, 2 * nn))
        for t in range(self.mesh.n_triangles):
            _, _, _, inv_jt, area = self._element(t)
            for q, wq in enumerate(self.weights):
                grads = self.grad_ref[q] @ inv_jt.T
                for i in range(6):
                    for j in range(6):
                        val = nu * wq * area * (grads[i] @ grads[j])
                        for c in range(2):
                            out[c * nn + self.tn[t, i], c * nn + self.tn[t, j]] += val
        return out

    def divergence(self) -> np.ndarray:
        nn = self.dofs.n_scalar_nodes
        out = np.zeros((self.dofs.n_pressure_dofs, 2 * nn))
        for t in range(self.mesh.n_triangles):
            _, _, _, inv_jt, area = self._element(t)
            for q, wq in enumerate(self.weights):
                grads = self.grad_ref[q] @ inv_jt.T
                for a in range(3):
                    pa = self.phi1[q, a] * wq * area
                    for j in range(6):
                        for c in range(2):
                            out[self.mesh.triangles[t, a], c * nn + self.tn[t, j]] -= \
                                pa * grads[j, c]
        return out

    def convection(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nn = self.dofs.n_scalar_nodes
        n1 = np.zeros((2 * nn, 2 * nn))
        n2 = np.zeros((2 * nn, 2 * nn))
        for t in range(self.mesh.n_triangles):
            _, _, _, inv_jt, area = self._element(t)
            wx = w[self.tn[t]]
            wy = w[nn + self.tn[t]]
            for q, wq in enumerate(self.weights):
                grads = self.grad_ref[q] @ inv_jt.T
                wind = np.array([wx @ self.phi2[q], wy @ self.phi2[q]])
                grad_w = np.array([grads.T @ wx, grads.T @ wy])  # (i, j)
                for a in range(6):
                    for b in range(6):
                        adv = wq * area * (wind @ grads[b]) * self.phi2[q, a]
                        mass = wq * area * self.phi2[q, b] * self.phi2[q, a]
                        for c in range(2):
                            n1[c * nn + self.tn[t, a], c * nn + self.tn[t, b]] += adv
                            for d in range(2):
                                n2[c * nn + self.tn[t, a], d * nn + self.tn[t, b]] += \
                                    mass * grad_w[c, d]
        return n1, n2

    def load(self, f) -> np.ndarray:
        nn = self.dofs.n_scalar_nodes
        out = np.zeros(2 * nn)
        for t in range(self.mesh.n_triangles):
            x0, e1, e2, _, area = self._element(t)
            for q, wq in enumerate(self.weights):
                xy = x0 + self.points[q, 0] * e1 + self.points[q, 1] * e2
                f1, f2 = f(xy[0], xy[1])
                for i in range(6):
                    out[self.tn[t, i]] += wq * area * f1 * self.phi2[q, i]
                    out[nn + self.tn[t, i]] += wq * area * f2 * self.phi2[q, i]
        return out


def dense_oracle_max_mismatch(n: int = 2, nu: float = 0.02) -> float:
    """Relative mismatch of every assembled operator against the dense oracle."""
    mesh = build_structured_mesh(n)
    dofs = build_dof_map(mesh)
    oracle = DenseOracle(mesh, dofs)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(dofs.n_velocity_dofs)

    def rel(a, b):
        scale = max(np.abs(b).max(), 1e-300)
        return np.abs(a - b).max() / scale

    n_u = dofs.n_velocity_dofs
    worst = rel(velocity_block(dofs, assembly.assemble_viscous(mesh, dofs, nu)).toarray(),
                oracle.viscous(nu))
    saddle = dofs.pattern.matrix(assembly.assemble_divergence(mesh, dofs)).toarray()
    b = oracle.divergence()
    worst = max(worst, rel(saddle[n_u:, :n_u], b), rel(saddle[:n_u, n_u:], b.T))
    n1, n2 = assembly.assemble_convection_linearized(mesh, dofs, w)
    o1, o2 = oracle.convection(w)
    worst = max(worst, rel(velocity_block(dofs, n1).toarray(), o1),
                rel(velocity_block(dofs, n2).toarray(), o2),
                rel(assembly.assemble_convection_load(mesh, dofs, w), o1 @ w))
    load = assembly.assemble_load(
        mesh, dofs, lambda x, y: manufactured.exact_forcing(x, y, nu))
    oload = oracle.load(lambda x, y: manufactured.exact_forcing(x, y, nu))
    worst = max(worst, rel(load, oload))
    return float(worst)


# ---------------------------------------------------------------------------
# convergence study and equivalence oracle

def convergence_study(ns=(4, 8, 16), nu: float = 0.02) -> dict:
    """Deterministic solve against the closed-form solution under refinement."""
    vel_errors, prs_errors = [], []
    for n in ns:
        _, _, fld, rep = uq.prepare(build_dof_map(build_structured_mesh(n)), nu)
        if not rep.converged:
            raise RuntimeError(f"deterministic solve failed to converge at n={n}")
        vel_errors.append(manufactured.l2_error(fld, manufactured.exact_velocity))
        prs_errors.append(manufactured.l2_error(fld, manufactured.exact_pressure_zero_mean,
                                                part="pressure"))
    vel_orders = [math.log2(vel_errors[i] / vel_errors[i + 1])
                  for i in range(len(ns) - 1)]
    prs_orders = [math.log2(prs_errors[i] / prs_errors[i + 1])
                  for i in range(len(ns) - 1)]
    return {"ns": list(ns), "velocity_errors": vel_errors,
            "pressure_errors": prs_errors, "velocity_orders": vel_orders,
            "pressure_orders": prs_orders}


def splitting_equivalence_max_defect(n: int = 8, sigma: float = 1.5,
                                     samples: int = 3, seed: int = 11,
                                     nu: float = 0.02) -> float:
    """Largest per-sample relative L2 gap between the monolithic solution and
    the sum of the splitting parts, over shared noise draws."""
    dofs = build_dof_map(build_structured_mesh(n))
    ops, load, xi, _ = uq.prepare(dofs, nu)
    cfg = uq.McConfig(M=samples, base_seed=seed, sigma=sigma, nu=nu, mesh_n=n, noise_n=n)
    loads, _ = uq.noise_loads(cfg, ops, range(samples))
    k_xi = solvers.LinearizedOperator(ops, xi)
    worst = 0.0
    for noise_load in loads.T:
        eta, rep_s = solvers.solve_stochastic_full(ops, k_xi, noise_load)
        mono, rep_m = solvers.solve_monolithic(ops, load, noise_load,
                                               initial_guess=xi)
        if not (rep_s.converged and rep_m.converged):
            return float("inf")
        gap = manufactured.l2_error(mono, xi + eta)
        worst = max(worst, gap / manufactured.velocity_l2_norm(dofs, mono.velocity))
    return worst


# ---------------------------------------------------------------------------
# battery driver

@contextmanager
def _mutated_convection():
    """Flip the sign of the convection assembly, matrices and residual vector
    alike (sensitivity demonstration)."""
    linearized = assembly.assemble_convection_linearized
    load = assembly.assemble_convection_load
    assembly.assemble_convection_linearized = \
        lambda *args, **kwargs: tuple(-n for n in linearized(*args, **kwargs))
    assembly.assemble_convection_load = lambda *args, **kwargs: -load(*args, **kwargs)
    try:
        yield
    finally:
        assembly.assemble_convection_linearized = linearized
        assembly.assemble_convection_load = load


def run_verification(include_convergence: bool = False,
                     mutate: str | None = None) -> list[CheckResult]:
    """Run the verification battery on small meshes; fast enough for CI."""
    if mutate not in (None, "convection-sign"):
        raise ValueError(f"unknown mutation {mutate!r}")
    results: list[CheckResult] = []

    for n in (1, 2, 3, 5, 8, 12):
        problems = audit_mesh(build_structured_mesh(n))
        results.append(CheckResult(
            f"mesh_audit_n{n}", not problems,
            "all invariants hold" if not problems else "; ".join(problems)))

    err5 = quadrature_max_error(assembly.triangle_rule_degree5())
    results.append(CheckResult("quadrature_degree5", err5 <= 1e-13,
                               f"max_rel_err={err5:.2e} tol=1e-13"))
    err10 = quadrature_max_error(
        assembly.triangle_rule_collapsed(assembly.ELEVATED_QUADRATURE_DEGREE))
    results.append(CheckResult("quadrature_degree10", err10 <= 1e-13,
                               f"max_rel_err={err10:.2e} tol=1e-13"))

    with (_mutated_convection() if mutate == "convection-sign" else nullcontext()):
        rng = np.random.default_rng(3)
        for n in (2, 4):
            mesh = build_structured_mesh(n)
            dofs = build_dof_map(mesh)
            fields, dim = divergence_free_velocity_fields(mesh, dofs, 5, seed=n)
            worst_skew = worst_annih = 0.0
            for w in fields:
                if not np.any(w):
                    continue
                skew, annih = trilinear_identity_defects(mesh, dofs, w, rng)
                worst_skew = max(worst_skew, skew)
                worst_annih = max(worst_annih, annih)
            ok = worst_skew <= 1e-11 and worst_annih <= 1e-11
            results.append(CheckResult(
                f"trilinear_identities_n{n}", ok,
                f"dim={dim} skew={worst_skew:.2e} annihilation={worst_annih:.2e} tol=1e-11"))

        mesh4 = build_structured_mesh(4)
        dofs4 = build_dof_map(mesh4)
        value_defect = trilinear_value_defect(mesh4, dofs4)
        results.append(CheckResult("trilinear_value", value_defect <= 1e-12,
                                   f"defect={value_defect:.2e} tol=1e-12"))

        mismatch = dense_oracle_max_mismatch(n=2)
        results.append(CheckResult("dense_assembly_oracle", mismatch <= 1e-10,
                                   f"max_rel_mismatch={mismatch:.2e} tol=1e-10"))

        gap = splitting_equivalence_max_defect()
        results.append(CheckResult("splitting_equivalence", gap <= 1e-10,
                                   f"max_rel_gap={gap:.2e} tol=1e-10"))

    # quick noise sanity: one-cell statistics over 10^4 draws
    grid = noise_mod.NoiseGrid(2)
    draws = np.array([noise_mod.sample_noise(grid, 1.0, noise_mod.substream_key(5, k)).zeta
                      for k in range(10_000)])
    mean_err = float(np.abs(draws.mean(axis=0)).max())
    var = draws.reshape(len(draws), -1).var(axis=0, ddof=1)
    var_ok = bool(np.all((var >= 0.95) & (var <= 1.05)))
    results.append(CheckResult(
        "noise_statistics", mean_err <= 0.03 and var_ok,
        f"max_mean={mean_err:.3f} var_range=[{var.min():.3f},{var.max():.3f}]"))

    if include_convergence:
        study = convergence_study()
        v_ok = min(study["velocity_orders"]) >= 2.5
        p_ok = min(study["pressure_orders"]) >= 1.5
        results.append(CheckResult(
            "manufactured_convergence", v_ok and p_ok,
            f"velocity_orders={['%.2f' % o for o in study['velocity_orders']]} "
            f"pressure_orders={['%.2f' % o for o in study['pressure_orders']]}"))

    return results


def diagnostics_line(cfg: uq.McConfig) -> str:
    d = uq.diagnostics(cfg)
    return (f"indicator={d.indicator:.6g} splitting_threshold={d.splitting_threshold} "
            f"splitting_ok={d.splitting_ok} modified_threshold={d.modified_threshold} "
            f"modified_ok={d.modified_ok} expected_kappa={d.expected_kappa:.4f}")
