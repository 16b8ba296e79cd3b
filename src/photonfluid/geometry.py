"""From the photon fluid to an effective curved spacetime.

Writing the mean field in Madelung form Ψ₀ = √n e^{iθ} maps the NLSE to
fluid variables: density n, flow v₀ = ∇θ/m, excitation speed
c_ex = √(n𝒢/m) and healing length ξ = 1/(m c_ex) (ħ = 1).  Linear
fluctuations obey

    ∂_t δn = −∇·( v₀ δn + (n/m) ∇δθ ),
    ∂_t δθ = −v₀·∇δθ − (m c_ex²/n) δn + (1/4mn) ∇·[ n ∇(δn/n) ],

where the last (quantum-pressure) term is negligible at scales ≫ ξ; there
δn follows δθ algebraically and the phase fluctuation satisfies a massless
Klein-Gordon equation on the acoustic metric

    g_μν = Ω [ [−(c_ex² − v₀·v₀), −v₀ᵀ], [−v₀, 𝟙] ],    Ω = n/(m c_ex),

with line element ds² = Ω[−c_ex²dt² + (dr − v₀dt)²].  Points with
c_ex² < 0 (attractive fluid, negative compressibility) carry a Euclidean
signature and are excluded from wave propagation and horizon analysis
rather than patched over.  The contour |v₀| = c_ex separates subcritical
flow from the superexcitonic region that traps outgoing excitations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as np

from .errors import PhysicsGateError
from .fluid import ComplexField2D, FluidParams, is_uniform, rk4_power
from .unwrap import unwrap_least_squares

__all__ = [
    "LORENTZIAN",
    "EUCLIDEAN",
    "DEGENERATE",
    "MadelungResult",
    "HydroFields",
    "MetricField",
    "madelung",
    "hydro_linear_step",
    "estimate_density_fluctuation",
    "build_metric",
    "line_element",
    "find_horizon",
    "marching_squares",
]

LORENTZIAN, EUCLIDEAN, DEGENERATE = 0, 1, 2


@dataclass
class MadelungResult:
    n: np.ndarray
    theta: np.ndarray
    vortices: list           # (ix, iy, charge) plaquette positions
    mask: np.ndarray         # True where the decomposition is trusted

    def __iter__(self):
        return iter((self.n, self.theta))


def madelung(psi: ComplexField2D, floor_rel: float = 1e-8) -> MadelungResult:
    """Split Ψ₀ = √n e^{iθ} with least-squares phase unwrapping.

    Points where |Ψ₀| falls below `floor_rel`·max|Ψ₀| are masked.  Phase
    residues (vortices) do not fail the call: they are returned as a list
    of plaquette charges and the surrounding points are masked, since no
    single-valued θ exists around a core.
    """
    n = np.abs(psi.data) ** 2
    theta, res = unwrap_least_squares(np.angle(psi.data))
    mask = np.abs(psi.data) > floor_rel * float(np.max(np.abs(psi.data)))
    vortices = [(int(i), int(j), int(res[i, j]))
                for i, j in zip(*np.nonzero(res))]
    for (i, j, _) in vortices:
        i0, i1 = max(0, i - 1), min(psi.nx, i + 3)
        j0, j1 = max(0, j - 1), min(psi.ny, j + 3)
        mask[i0:i1, j0:j1] = False
    return MadelungResult(n=n, theta=theta, vortices=vortices, mask=mask)


@dataclass
class HydroFields:
    """Hydrodynamic background on a grid: density n, phase θ (optional for
    imposed flows), flow velocity (vx, vy), squared excitation speed c2
    and healing length xi; `mask` marks trusted points."""

    nx: int
    ny: int
    dx: float
    dy: float
    m: float
    G: float
    n: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    c2: np.ndarray
    xi: np.ndarray
    theta: np.ndarray | None = None
    mask: np.ndarray | None = None
    x0: float = 0.0
    y0: float = 0.0
    meta: dict = _field(default_factory=dict)

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones((self.nx, self.ny), dtype=bool)

    def x(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    def y(self) -> np.ndarray:
        return self.y0 + np.arange(self.ny) * self.dy

    @classmethod
    def from_field(cls, psi: ComplexField2D, p: FluidParams) -> "HydroFields":
        """Madelung-decompose a mean field; v₀ = ∇θ/m by finite differences
        of the unwrapped phase."""
        md = madelung(psi)
        gx, gy = np.gradient(md.theta, psi.dx, psi.dy)
        c2 = md.n * p.G_kerr / p.m
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(c2 > 0, 1.0 / (abs(p.m) * np.sqrt(np.abs(c2))), np.nan)
        return cls(
            nx=psi.nx, ny=psi.ny, dx=psi.dx, dy=psi.dy, m=p.m, G=p.G_kerr,
            n=md.n, vx=gx / p.m, vy=gy / p.m, c2=c2, xi=xi,
            theta=md.theta, mask=md.mask,
            x0=float(psi.x()[0]), y0=float(psi.y()[0]),
            meta={"vortices": md.vortices},
        )

    @classmethod
    def uniform(cls, nx, ny, dx, dy, m, G, density=1.0, vx=0.0, vy=0.0):
        n = np.full((nx, ny), float(density))
        c2 = n * G / m
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(c2 > 0, 1.0 / (abs(m) * np.sqrt(np.abs(c2))), np.nan)
        return cls(nx=nx, ny=ny, dx=dx, dy=dy, m=m, G=G, n=n,
                   vx=np.full((nx, ny), float(vx)),
                   vy=np.full((nx, ny), float(vy)),
                   c2=c2, xi=xi,
                   x0=-(nx // 2) * dx, y0=-(ny // 2) * dy)

    @classmethod
    def from_profiles(cls, x, y, m, G, n, vx, vy, c2=None):
        """Imposed analytic background: broadcastable arrays over (x, y)."""
        nx, ny = len(x), len(y)
        shape = (nx, ny)
        n = np.broadcast_to(np.asarray(n, float), shape).copy()
        vx = np.broadcast_to(np.asarray(vx, float), shape).copy()
        vy = np.broadcast_to(np.asarray(vy, float), shape).copy()
        if c2 is None:
            c2 = n * G / m
        else:
            c2 = np.broadcast_to(np.asarray(c2, float), shape).copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(c2 > 0, 1.0 / (abs(m) * np.sqrt(np.abs(c2))), np.nan)
        return cls(nx=nx, ny=ny, dx=float(x[1] - x[0]), dy=float(y[1] - y[0]),
                   m=m, G=G, n=n, vx=vx, vy=vy, c2=c2, xi=xi,
                   x0=float(x[0]), y0=float(y[0]))

    # spectral helpers for the linearized hydro step (periodic topology)
    def _kgrids(self):
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        return kx[:, None], ky[None, :]


def _ddx(f, kx):
    return np.real(np.fft.ifft2(1j * kx * np.fft.fft2(f)))


def _ddy(f, ky):
    return np.real(np.fft.ifft2(1j * ky * np.fft.fft2(f)))


def hydro_linear_step(
    dn: np.ndarray,
    dtheta: np.ndarray,
    fields: HydroFields,
    dt: float,
    steps: int = 1,
    quantum_pressure: bool = True,
):
    """Advance the linearized hydrodynamic pair (δn, δθ) on a stationary
    background (RK4, spectral derivatives, periodic).

    ∂_t δn = −∇·( v₀ δn + (n/m) ∇δθ )
    ∂_t δθ = −v₀·∇δθ − 𝒢 δn [ + (1/4mn) ∇·( n ∇(δn/n) ) ]

    When n, v₀ and mc²/n are uniform to 1e-12 relative (and `steps` > 0)
    every wavevector evolves on its own: (δn_k, δθ_k) is advanced by the
    2×2 RK4 amplification matrix raised to `steps` (`rk4_power`), which
    equals stepping up to roundoff.  The spectral derivative of a real
    field, real(ifft2(ik·fft2 f)), drops the Nyquist row (for ∂ₓ) and
    column (for ∂ᵧ) of an even side, so k is zero there in the closed form
    as well; an odd side has no Nyquist mode and keeps every k.
    """
    if fields.mask is not None and not np.all(fields.mask):
        raise PhysicsGateError("background has masked points; hydro step needs "
                               "a clean (residue-free) region")
    kx, ky = fields._kgrids()
    n, vx, vy, m = fields.n, fields.vx, fields.vy, fields.m
    # local mc²/n = 𝒢, kept pointwise for generality
    mc2_over_n = np.where(n > 0, m * fields.c2 / n, 0.0)

    if steps > 0 and is_uniform(n) and is_uniform(vx, vy) \
            and is_uniform(mc2_over_n):
        # ∂ of a real field is i·k with the Nyquist row/column dropped
        kx, ky = kx.copy(), ky.copy()
        if fields.nx % 2 == 0:
            kx[fields.nx // 2] = 0.0
        if fields.ny % 2 == 0:
            ky[:, fields.ny // 2] = 0.0
        k2 = kx * kx + ky * ky
        n0, g = n.flat[0], mc2_over_n.flat[0]
        q = 0.25 / (m * n0) if quantum_pressure else 0.0
        adv = -1j * dt * (vx.flat[0] * kx + vy.flat[0] * ky)
        p00, p01, p10, p11 = rk4_power(
            (adv, dt * (n0 / m) * k2, -dt * (g + q * k2), adv), steps)
        ak = np.fft.fft2(np.asarray(dn, float))
        tk = np.fft.fft2(np.asarray(dtheta, float))
        return (np.real(np.fft.ifft2(p00 * ak + p01 * tk)),
                np.real(np.fft.ifft2(p10 * ak + p11 * tk)))

    qp = 0.25 / (m * n) if quantum_pressure else None

    def rhs(a, th):
        fx = vx * a + (n / m) * _ddx(th, kx)
        fy = vy * a + (n / m) * _ddy(th, ky)
        da = -(_ddx(fx, kx) + _ddy(fy, ky))
        dth = -(vx * _ddx(th, kx) + vy * _ddy(th, ky)) - mc2_over_n * a
        if qp is not None:
            r = a / n
            dth = dth + qp * (_ddx(n * _ddx(r, kx), kx) + _ddy(n * _ddy(r, ky), ky))
        return da, dth

    a, th = np.asarray(dn, float).copy(), np.asarray(dtheta, float).copy()
    for _ in range(steps):
        k1 = rhs(a, th)
        k2 = rhs(a + 0.5 * dt * k1[0], th + 0.5 * dt * k1[1])
        k3 = rhs(a + 0.5 * dt * k2[0], th + 0.5 * dt * k2[1])
        k4 = rhs(a + dt * k3[0], th + dt * k3[1])
        a = a + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        th = th + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return a, th


def estimate_density_fluctuation(
    dtheta_t: np.ndarray, dtheta: np.ndarray, fields: HydroFields
) -> np.ndarray:
    """Hydrodynamic estimate δn ≃ −(n/mc²)( v₀·∇δθ + ∂_tδθ ).

    Valid at scales ≫ ξ; requires c² > 0 everywhere.
    """
    if np.any(fields.c2 <= 0):
        raise PhysicsGateError("c_ex² <= 0 somewhere: no hydrodynamic regime")
    kx, ky = fields._kgrids()
    adv = fields.vx * _ddx(dtheta, kx) + fields.vy * _ddy(dtheta, ky)
    return -(fields.n / (fields.m * fields.c2)) * (adv + dtheta_t)


@dataclass
class MetricField:
    """Acoustic metric sampled on the grid.

    Stored are the fields the metric is built from (n, c², v), the signed
    conformal factor Ω = n/(m c_ex), the volume weight and the signature.
    det g follows the closed form det g = −Ω³c².  For negative photon mass
    Ω < 0 and the tensor is the overall negative of a (−,+,+) metric; since
    the wave operator is invariant under g → −g, `sqrt_minus_g` stores the
    volume weight of the sign-normalized form, |det g|^{1/2} = |Ω|^{3/2} c.

    `g`, `g_inv` (shape (nx, ny, 3, 3), coordinate order (t, x, y)) and
    `det_g` are read-only properties built from (Ω, c², v) on each access,
    9·nx·ny floats per tensor; callers that read one repeatedly should keep
    the result.  Their entries are NaN wherever the signature is not
    Lorentzian.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    m: float
    n: np.ndarray
    c2: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    conformal: np.ndarray
    sqrt_minus_g: np.ndarray
    signature: np.ndarray

    def lorentzian(self) -> np.ndarray:
        return self.signature == LORENTZIAN

    def x(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    def y(self) -> np.ndarray:
        return self.y0 + np.arange(self.ny) * self.dy

    @property
    def g(self) -> np.ndarray:
        """g₀₀ = −Ω(c² − v·v), g₀ᵢ = −Ωvᵢ, gᵢⱼ = Ωδᵢⱼ."""
        conformal, vx, vy = self.conformal, self.vx, self.vy
        v2 = vx * vx + vy * vy
        g = np.full((self.nx, self.ny, 3, 3), np.nan)
        g[..., 0, 0] = -conformal * (self.c2 - v2)
        g[..., 0, 1] = g[..., 1, 0] = -conformal * vx
        g[..., 0, 2] = g[..., 2, 0] = -conformal * vy
        g[..., 1, 1] = conformal
        g[..., 2, 2] = conformal
        g[..., 1, 2] = g[..., 2, 1] = 0.0
        g[~self.lorentzian()] = np.nan
        return g

    @property
    def g_inv(self) -> np.ndarray:
        """g⁰⁰ = −1/(Ωc²), g⁰ⁱ = −vᵢ/(Ωc²), gⁱʲ = (δᵢⱼ − vᵢvⱼ/c²)/Ω."""
        conformal, c2, vx, vy = self.conformal, self.c2, self.vx, self.vy
        g_inv = np.full((self.nx, self.ny, 3, 3), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_oc2 = 1.0 / (conformal * c2)
            g_inv[..., 0, 0] = -inv_oc2
            g_inv[..., 0, 1] = g_inv[..., 1, 0] = -vx * inv_oc2
            g_inv[..., 0, 2] = g_inv[..., 2, 0] = -vy * inv_oc2
            g_inv[..., 1, 1] = (1.0 - vx * vx / c2) / conformal
            g_inv[..., 2, 2] = (1.0 - vy * vy / c2) / conformal
            g_inv[..., 1, 2] = g_inv[..., 2, 1] = (-vx * vy / c2) / conformal
        g_inv[~self.lorentzian()] = np.nan
        return g_inv

    @property
    def det_g(self) -> np.ndarray:
        """det g = −Ω³c² (NaN where Ω is, i.e. off Lorentzian points)."""
        return -(self.conformal**3) * self.c2


def build_metric(fields: HydroFields, n_floor: float = 1e-300) -> MetricField:
    """Classify the signature and compute the conformal factor and volume
    weight of the acoustic metric; the tensors follow from these on access
    (see `MetricField`).

    Per Lorentzian point (c² > 0): g₀₀ = −Ω(c² − v·v), g₀ᵢ = −Ωvᵢ,
    gᵢⱼ = Ωδᵢⱼ with Ω = n/(m c); the inverse is the closed form
    g⁰⁰ = −1/(Ωc²), g⁰ᵢ = −vᵢ/(Ωc²), gⁱʲ = (δᵢⱼ − vᵢvⱼ/c²)/Ω.
    c² < 0 points are marked Euclidean and carry NaN tensors (the speed is
    imaginary there; no Lorentzian structure is invented).  c² = 0 or
    vanishing density marks a point Degenerate.
    """
    n, c2, vx, vy, m = fields.n, fields.c2, fields.vx, fields.vy, fields.m
    nx, ny = fields.nx, fields.ny

    signature = np.full((nx, ny), DEGENERATE, dtype=np.uint8)
    signature[c2 > 0] = LORENTZIAN
    signature[c2 < 0] = EUCLIDEAN
    signature[n <= n_floor] = DEGENERATE
    if fields.mask is not None:
        signature[~fields.mask] = DEGENERATE
    lz = signature == LORENTZIAN

    # Ω = n/(m c) and |det g|^{1/2} = |Ω³c²|^{1/2}, each formed in one buffer
    with np.errstate(divide="ignore", invalid="ignore"):
        conformal = np.where(lz, c2, np.nan)
        np.sqrt(conformal, out=conformal)
        conformal *= m
        np.divide(n, conformal, out=conformal)
        sqrt_mg = conformal**3
        sqrt_mg *= c2
        np.abs(sqrt_mg, out=sqrt_mg)
        sqrt_mg[~lz] = np.nan
        np.sqrt(sqrt_mg, out=sqrt_mg)

    return MetricField(
        nx=nx, ny=ny, dx=fields.dx, dy=fields.dy, x0=fields.x0, y0=fields.y0,
        m=m, n=n.copy(), c2=c2.copy(), vx=vx.copy(), vy=vy.copy(),
        conformal=conformal, sqrt_minus_g=sqrt_mg, signature=signature,
    )


def line_element(metric: MetricField, ix: int, iy: int, dt: float, dr) -> float:
    """ds² = Ω[−c²dt² + (dr − v₀dt)·(dr − v₀dt)] at grid point (ix, iy)."""
    if metric.signature[ix, iy] != LORENTZIAN:
        raise PhysicsGateError("line element requested at a non-Lorentzian point")
    drx, dry = float(dr[0]), float(dr[1])
    ox = drx - metric.vx[ix, iy] * dt
    oy = dry - metric.vy[ix, iy] * dt
    return float(metric.conformal[ix, iy]
                 * (-metric.c2[ix, iy] * dt * dt + ox * ox + oy * oy))


# ---------------------------------------------------------------------------
# marching squares

_EDGES = {0: ((0, 0), (1, 0)),   # bottom: between corners (i,j) and (i+1,j)
          1: ((1, 0), (1, 1)),   # right
          2: ((0, 1), (1, 1)),   # top
          3: ((0, 0), (0, 1))}   # left


def _edge_point(i, j, edge, F, x, y):
    (a0, b0), (a1, b1) = _EDGES[edge]
    f0 = F[i + a0, j + b0]
    f1 = F[i + a1, j + b1]
    t = f0 / (f0 - f1)
    px = x[i + a0] + t * (x[i + a1] - x[i + a0])
    py = y[j + b0] + t * (y[j + b1] - y[j + b0])
    return (px, py)


# per-case oriented segment list (entry edge, exit edge) with the positive
# region kept on the LEFT of the walking direction; corner order of the
# case index bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1), 8=(i,j+1)
_CASES = {
    1: [(0, 3)], 2: [(1, 0)], 3: [(1, 3)], 4: [(2, 1)],
    6: [(2, 0)], 7: [(2, 3)], 8: [(3, 2)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def marching_squares(F: np.ndarray, x: np.ndarray, y: np.ndarray,
                     level: float = 0.0):
    """Zero-level contours of F(x, y) by marching squares.

    Returns a list of polylines (arrays of (x, y) vertices) with linear
    interpolation along cell edges; the F > level region lies on the left
    of the walking direction.  Saddle cells are disambiguated with the
    cell-centre average.  Closed loops repeat their first vertex.

    The 4-bit case index of every cell is formed at once from the corner
    signs (Lorensen & Cline, "Marching cubes", SIGGRAPH 1987); only the
    cells the contour crosses (index neither 0 nor 15) are then walked, in
    row-major order.
    """
    F = np.asarray(F, float) - level
    P = (F > 0).astype(np.uint8)
    index = (P[:-1, :-1] | (P[1:, :-1] << 1) | (P[1:, 1:] << 2)
             | (P[:-1, 1:] << 3))
    crossing = np.nonzero((index != 0) & (index != 15))
    segments = {}
    for i, j, idx in zip(crossing[0].tolist(), crossing[1].tolist(),
                         index[crossing].tolist()):
        if idx in (5, 10):
            center = 0.25 * (F[i, j] + F[i + 1, j] + F[i + 1, j + 1] + F[i, j + 1])
            if idx == 5:
                pairs = [(0, 1), (2, 3)] if center > 0 else [(0, 3), (2, 1)]
            else:
                pairs = [(3, 0), (1, 2)] if center > 0 else [(1, 0), (3, 2)]
        else:
            pairs = _CASES[idx]
        for (e_in, e_out) in pairs:
            p0 = _edge_point(i, j, e_in, F, x, y)
            p1 = _edge_point(i, j, e_out, F, x, y)
            segments.setdefault(_key(p0), []).append((p0, p1))
    return _link(segments)


def _link(segments: dict) -> list:
    """Chain oriented segments, keyed by their start vertex in scan order,
    into polylines; emptied in the process."""
    by_end = {}
    for segs in segments.values():
        for seg in segs:
            by_end.setdefault(_key(seg[1]), []).append(seg)

    def _take(index, key):
        seg = index[key].pop(0)
        if not index[key]:
            del index[key]
        return seg

    def _discard(index, key, seg):
        if key in index and seg in index[key]:
            index[key].remove(seg)
            if not index[key]:
                del index[key]

    polylines = []
    while segments:
        k0 = next(iter(segments))
        seg = _take(segments, k0)
        _discard(by_end, _key(seg[1]), seg)
        line = [seg[0], seg[1]]
        while True:                      # forward
            k = _key(line[-1])
            if k == _key(line[0]):
                break
            if k not in segments:
                break
            seg = _take(segments, k)
            _discard(by_end, _key(seg[1]), seg)
            line.append(seg[1])
        if _key(line[-1]) != _key(line[0]):
            while True:                  # backward, for open chains
                k = _key(line[0])
                if k not in by_end:
                    break
                seg = _take(by_end, k)
                _discard(segments, _key(seg[0]), seg)
                line.insert(0, seg[0])
        polylines.append(np.array(line))
    return polylines


def _key(p, tol=1e-9):
    return (round(p[0] / tol), round(p[1] / tol))


def find_horizon(fields: HydroFields) -> list:
    """Sonic horizons: contours of F = |v₀|² − c_ex² = 0.

    Empty list when the flow is everywhere sub- or supercritical.  The
    superexcitonic region (F > 0, flow faster than the excitation speed)
    lies on the left of each polyline's walking direction.
    """
    if np.any(fields.c2 <= 0):
        raise PhysicsGateError("horizon analysis requires c_ex² > 0 on the grid")
    F = fields.vx**2 + fields.vy**2 - fields.c2
    return marching_squares(F, fields.x(), fields.y(), level=0.0)
