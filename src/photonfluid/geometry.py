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

    g_μν = Ω [ [−(c_ex² − v₀·v₀), −v₀ᵀ], [−v₀, 𝟙] ],    Ω = (n/(m c_ex))²,

with line element ds² = Ω[−c_ex²dt² + (dr − v₀dt)²].  The conformal
factor is that of a fluid in two space dimensions, (n/(m c_ex))^{2/(d−1)}
for d = 2 (Barceló, Liberati & Visser, "Analogue Gravity", Living Rev.
Relativ. 14, 3 (2011)): only with it is □δθ = 0 the long-wave limit of
the equations above, in which the time derivatives carry the weight
n/(m c_ex²).  Ω keeps the sign of m.  Points with c_ex² < 0 (attractive
fluid, negative compressibility) carry a Euclidean signature and are
excluded from wave propagation and horizon analysis rather than patched
over.  The contour |v₀| = c_ex separates subcritical
flow from the superexcitonic region that traps outgoing excitations.

Horizons are traced by marching squares over bands of rows: the case
index of every cell of a band and the corner values of its crossed cells
are formed at once, every edge point is formed once after the last band,
and only the chaining of segments into polylines runs in Python.  The
horizon function itself is formed a band at a time and never as a grid.
Vertices that round to the same multiple of 1e-9 (in grid units) are one
vertex, and a segment of zero length in those keys is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PhysicsGateError, StepSizeError
from .fluid import (ComplexField2D, FluidParams, Grid, _apply_real_pair,
                    _check_counts, _linear_steps, is_uniform, rk4_power,
                    spectral_d)
from .unwrap import unwrap_least_squares

__all__ = [
    "LORENTZIAN",
    "EUCLIDEAN",
    "DEGENERATE",
    "MadelungResult",
    "HydroFields",
    "MetricField",
    "healing_length",
    "madelung",
    "hydro_linear_step",
    "estimate_density_fluctuation",
    "build_metric",
    "find_horizon",
    "marching_squares",
]

LORENTZIAN, EUCLIDEAN, DEGENERATE = 0, 1, 2

# floats in the row-block buffer of the horizon function's vy² (64 KB)
_BLOCK_FLOATS = 1 << 13
# floats in a row band that `marching_squares` reads at a time (512 KB)
_BAND_FLOATS = 1 << 16


@dataclass
class MadelungResult:
    n: np.ndarray
    theta: np.ndarray
    vortices: list           # (ix, iy, charge) plaquette positions
    mask: np.ndarray         # True where the decomposition is trusted

    def __iter__(self):
        return iter((self.n, self.theta))


def madelung(psi: ComplexField2D) -> MadelungResult:
    """Split Ψ₀ = √n e^{iθ} with least-squares phase unwrapping.

    Points where |Ψ₀| falls below 1e-8·max|Ψ₀| are masked.  Phase
    residues (vortices) do not fail the call: they are returned as a list
    of plaquette charges and the surrounding points are masked, since no
    single-valued θ exists around a core.
    """
    amp = np.abs(psi.data)
    mask = amp > 1e-8 * float(np.max(amp))
    n = np.square(amp, out=amp)
    theta, res = unwrap_least_squares(np.angle(psi.data))
    vortices = [(int(i), int(j), int(res[i, j]))
                for i, j in zip(*np.nonzero(res))]
    for (i, j, _) in vortices:
        i0, i1 = max(0, i - 1), min(psi.grid.nx, i + 3)
        j0, j1 = max(0, j - 1), min(psi.grid.ny, j + 3)
        mask[i0:i1, j0:j1] = False
    return MadelungResult(n=n, theta=theta, vortices=vortices, mask=mask)


def healing_length(m, c2):
    """ξ = 1/(|m| c_ex) where c_ex² > 0, NaN elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c2 > 0, 1.0 / (abs(m) * np.sqrt(np.abs(c2))), np.nan)


@dataclass
class HydroFields:
    """Hydrodynamic background on a `Grid` (any side lengths): density n,
    flow velocity (vx, vy), squared excitation speed c2; `mask` marks
    trusted points, and `None` (the default) trusts every point.  The
    healing length `xi` is derived from c2 on access."""

    grid: Grid
    m: float
    n: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    c2: np.ndarray
    mask: np.ndarray | None = None

    @property
    def xi(self) -> np.ndarray:
        """Healing length ξ = 1/(|m| c_ex) of the current c2."""
        return healing_length(self.m, self.c2)

    @classmethod
    def from_field(cls, psi: ComplexField2D, p: FluidParams) -> "HydroFields":
        """Madelung-decompose a mean field; v₀ = ∇θ/m by finite differences
        of the unwrapped phase and c² = n𝒢/m.  A non-finite profile (a c²
        that overflows at a tiny mass, say) raises `NumericalError`, as in
        `from_profiles`."""
        md = madelung(psi)
        gx, gy = np.gradient(md.theta, psi.grid.dx, psi.grid.dy)
        fields = cls.from_profiles(psi.grid, p.m, p.G_kerr, n=md.n,
                                   vx=gx / p.m, vy=gy / p.m)
        fields.mask = md.mask
        return fields

    @classmethod
    def uniform(cls, grid: Grid, m, G, density=1.0, vx=0.0, vy=0.0):
        return cls.from_profiles(grid, m, G, n=density, vx=vx, vy=vy)

    @classmethod
    def from_profiles(cls, grid: Grid, m, G, n, vx, vy, c2=None):
        """Imposed analytic background: arrays (or scalars) broadcastable
        to the grid; c2 defaults to n𝒢/m.  A float array of the grid's
        shape is kept as given, not copied.  A scalar or lower-rank profile
        (a constant density, a flow that varies along one axis) becomes a
        read-only zero-stride view of the grid's shape, so it allocates no
        grid and an in-place write to it raises `ValueError`: perturb a
        copy.  A profile with a non-finite entry (an overflowed flow, say)
        raises `NumericalError`."""
        profiles = {"n": np.asarray(n, float), "vx": np.asarray(vx, float),
                    "vy": np.asarray(vy, float)}
        # an overflowing c² is refused as not finite below
        with np.errstate(over="ignore"):
            profiles["c2"] = profiles["n"] * G / m if c2 is None \
                else np.asarray(c2, float)
        for name, a in profiles.items():
            if not np.isfinite(a).all():
                raise NumericalError(f"background profile {name} is not finite")
            if a.shape != grid.shape:
                profiles[name] = np.broadcast_to(a, grid.shape)
        return cls(grid=grid, m=m, **profiles)


def hydro_linear_step(
    dn: np.ndarray,
    dtheta: np.ndarray,
    fields: HydroFields,
    dt: float,
    steps: int = 1,
    quantum_pressure: bool = True,
    force: bool = False,
):
    """Advance the linearized hydrodynamic pair (δn, δθ) on a stationary
    background (RK4, spectral derivatives, periodic).

    Unless `force`, a dt past RK4's imaginary-axis bound, dt·rate > 2√2,
    is refused with `StepSizeError` before any stepping.  The rate is that
    of the fastest Bogoliubov/advection mode on the grid,
    |v|ₘₐₓ|k| + cₘₐₓ|k|√(1 + (|k|ξₘᵢₙ)²/4) with |k| the largest grid
    wavenumber, cₘₐₓ² = max|c²| and ξₘᵢₙ = 1/(|m|cₘₐₓ); without quantum
    pressure the ξ term is dropped.

    ∂_t δn = −∇·( v₀ δn + (n/m) ∇δθ )
    ∂_t δθ = −v₀·∇δθ − 𝒢 δn [ + (1/4mn) ∇·( n ∇(δn/n) ) ]

    When n, v₀ and mc²/n are uniform to 1e-12 relative and dt is within
    the bound, every wavevector evolves on its own: (δn_k, δθ_k) is
    advanced by the 2×2 RK4 amplification matrix raised to `steps`
    (`rk4_power`), which equals stepping up to roundoff.  A forced run
    past the bound always steps, so a blow-up is reported at the step it
    happens; both paths go through `fluid._linear_steps`, whose docstring
    holds the blow-up contract.
    The spectral derivative of a real field, real(ifft2(ik·fft2 f)), drops
    the Nyquist row (for ∂ₓ) and column (for ∂ᵧ) of an even side, so k is
    zero there in the closed form as well; an odd side has no Nyquist mode
    and keeps every k.  A negative `steps` is refused with `ValueError`.
    """
    _check_counts(steps)
    if fields.mask is not None and not np.all(fields.mask):
        raise PhysicsGateError("background has masked points; hydro step needs "
                               "a clean (residue-free) region")
    grid = fields.grid
    kx, ky = grid.k()
    n, vx, vy, m = fields.n, fields.vx, fields.vy, fields.m
    # cₘₐₓ|k|√(1 + (|k|ξₘᵢₙ)²/4) = |k|√(cₘₐₓ² + k²/4m²), finite at c = 0
    k2 = grid.k2_max
    qp2 = k2 / (4.0 * m * m) if quantum_pressure else 0.0
    rate = np.sqrt(k2) * (float(np.max(np.hypot(vx, vy)))
                          + np.sqrt(float(np.max(np.abs(fields.c2))) + qp2))
    stable = dt * rate <= 2.0 * np.sqrt(2.0)
    if not (stable or force):
        raise StepSizeError(f"dt too large: dt*rate = {dt * rate:.3g} > 2√2 "
                            f"(pass force=True to override)")
    # local mc²/n = 𝒢, kept pointwise for generality
    mc2_over_n = np.where(n > 0, m * fields.c2 / n, 0.0)

    power = rhs = None
    if stable and is_uniform(n) and is_uniform(vx, vy) \
            and is_uniform(mc2_over_n):
        # ∂ of a real field is i·k with the Nyquist row/column dropped
        kx, ky = kx.copy(), ky.copy()
        if grid.nx % 2 == 0:
            kx[grid.nx // 2] = 0.0
        if grid.ny % 2 == 0:
            ky[:, grid.ny // 2] = 0.0
        k2 = kx * kx + ky * ky
        n0, g = n.flat[0], mc2_over_n.flat[0]
        q = 0.25 / (m * n0) if quantum_pressure else 0.0
        adv = -1j * dt * (vx.flat[0] * kx + vy.flat[0] * ky)
        z = (adv, dt * (n0 / m) * k2, -dt * (g + q * k2), adv)

        def power(s):
            return rk4_power(z, s)
    else:
        qp = 0.25 / (m * n) if quantum_pressure else None
        n_m = n / m

        def rhs(y, out):
            (a, th), (da, dth) = y, out
            thx, thy = spectral_d(th, kx), spectral_d(th, ky)
            np.negative(spectral_d(vx * a + n_m * thx, kx)
                        + spectral_d(vy * a + n_m * thy, ky), out=da)
            np.negative(vx * thx + vy * thy, out=dth)
            dth -= mc2_over_n * a
            if qp is not None:
                r = a / n
                dth += qp * (spectral_d(n * spectral_d(r, kx), kx)
                             + spectral_d(n * spectral_d(r, ky), ky))

    dn, dtheta = _linear_steps(np.array((dn, dtheta), float), steps, dt,
                               "hydro fluctuation", power, _apply_real_pair,
                               rhs)
    return dn, dtheta


def estimate_density_fluctuation(
    dtheta_t: np.ndarray, dtheta: np.ndarray, fields: HydroFields
) -> np.ndarray:
    """Hydrodynamic estimate δn ≃ −(n/mc²)( v₀·∇δθ + ∂_tδθ ).

    Valid at scales ≫ ξ; requires c² > 0 everywhere.  This is the step
    from the linearized fluid equations to the Klein-Gordon equation on
    the acoustic metric: without quantum pressure δn follows δθ
    algebraically.  `test_density_estimate_against_hydro_solver` checks
    it against `hydro_linear_step` to O((kξ)²).
    """
    if np.any(fields.c2 <= 0):
        raise PhysicsGateError("c_ex² <= 0 somewhere: no hydrodynamic regime")
    kx, ky = fields.grid.k()
    adv = fields.vx * spectral_d(dtheta, kx) + fields.vy * spectral_d(dtheta, ky)
    return -(fields.n / (fields.m * fields.c2)) * (adv + dtheta_t)


@dataclass
class MetricField:
    """Acoustic metric sampled on the grid.

    Stored are the fields the metric is built from (n, c², v), the signed
    conformal factor Ω = (n/(m c_ex))·|n/(m c_ex)| of a 2+1-D fluid and
    the signature.  n, c² and v are the arrays of the `HydroFields` the
    metric was built from, not copies: callers treat them as read-only.  Ω and the signature are read-only
    broadcast views when n and c² are (see `build_metric`): perturb a
    copy, as `HydroFields.from_profiles` says.
    det g follows the closed form det g = −Ω³c².  For negative photon mass
    Ω < 0 and the tensor is the overall negative of a (−,+,+) metric; since
    the wave operator is invariant under g → −g, `sqrt_minus_g` is the
    volume weight of the sign-normalized form, |det g|^{1/2} = |Ω|^{3/2} c.

    `g`, `g_inv` (shape (nx, ny, 3, 3), coordinate order (t, x, y)),
    `det_g` and `sqrt_minus_g` are read-only properties built from
    (Ω, c², v) on each access, 9·nx·ny floats per tensor and nx·ny per
    scalar field; callers that read one repeatedly should keep the result.
    Their entries are NaN wherever the signature is not Lorentzian.
    """

    grid: Grid
    m: float
    n: np.ndarray
    c2: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    conformal: np.ndarray
    signature: np.ndarray

    def lorentzian(self) -> np.ndarray:
        return self.signature == LORENTZIAN

    @property
    def g(self) -> np.ndarray:
        """g₀₀ = −Ω(c² − v·v), g₀ᵢ = −Ωvᵢ, gᵢⱼ = Ωδᵢⱼ."""
        conformal, vx, vy = self.conformal, self.vx, self.vy
        v2 = vx * vx + vy * vy
        g = np.full(self.grid.shape + (3, 3), np.nan)
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
        g_inv = np.full(self.grid.shape + (3, 3), np.nan)
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

    @property
    def sqrt_minus_g(self) -> np.ndarray:
        """|det g|^{1/2} = |Ω³c²|^{1/2} (NaN where Ω is), in one buffer."""
        root = self.conformal**3
        root *= self.c2
        np.abs(root, out=root)
        return np.sqrt(root, out=root)


def build_metric(fields: HydroFields) -> MetricField:
    """Classify the signature and compute the conformal factor of the
    acoustic metric; the volume weight and the tensors follow from it on
    access (see `MetricField`).

    Per Lorentzian point (c² > 0): g₀₀ = −Ω(c² − v·v), g₀ᵢ = −Ωvᵢ,
    gᵢⱼ = Ωδᵢⱼ with Ω = (n/(m c))·|n/(m c)|, the 2+1-D conformal factor
    with the sign of m; the inverse is the closed form
    g⁰⁰ = −1/(Ωc²), g⁰ᵢ = −vᵢ/(Ωc²), gⁱʲ = (δᵢⱼ − vᵢvⱼ/c²)/Ω.
    c² < 0 points are marked Euclidean and carry NaN tensors (the speed is
    imaginary there; no Lorentzian structure is invented).  c² = 0, a
    density n ≤ 1e-300 or an Ω that underflows to zero or a subnormal
    (|Ω| < `np.finfo(float).tiny`, as at 1e-300 < n ≲ 1e-154·|m|c, where
    the inverse would hold ±inf and NaN) marks a point Degenerate, with
    Ω = NaN.

    The signature and Ω depend on n, c² and the mask only, so they are
    formed on the shape those have before broadcasting.  When n and c²
    are broadcast views of lower-rank profiles and there is no mask (a
    constant n and c² give one value each), they are read-only broadcast
    views of the grid's shape as well, and an in-place write to them
    raises `ValueError`: perturb a copy.  Full-grid inputs give owned
    full-grid arrays.  Either way every value is that of the full-grid
    arithmetic.
    """
    n, c2, m = fields.n, fields.c2, fields.m
    own = [_unbroadcast(np.asarray(a)) for a in (n, c2, fields.mask)
           if a is not None]
    shape = np.broadcast_shapes(*(a.shape for a in own))
    n0, c20, *mask = (np.broadcast_to(a, shape) for a in own)

    signature = np.full(shape, DEGENERATE, dtype=np.uint8)
    signature[c20 > 0] = LORENTZIAN
    signature[c20 < 0] = EUCLIDEAN
    signature[n0 <= 1e-300] = DEGENERATE
    if mask:
        signature[~mask[0]] = DEGENERATE
    lz = signature == LORENTZIAN

    # Ω = (n/(m c))·|n/(m c)|, formed in one buffer before it is broadcast
    # (a broadcast view is read-only); NaN off Lorentzian points
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        conformal = np.where(lz, c20, np.nan)
        np.sqrt(conformal, out=conformal)
        conformal *= m
        np.divide(n0, conformal, out=conformal)
        conformal *= np.abs(conformal)
    # an Ω that underflowed to zero or a subnormal has no finite inverse
    tiny = np.finfo(float).tiny
    lost = conformal < tiny
    lost &= conformal > -tiny
    if lost.any():
        signature[lost] = DEGENERATE
        conformal[lost] = np.nan

    if shape != fields.grid.shape:
        signature = np.broadcast_to(signature, fields.grid.shape)
        conformal = np.broadcast_to(conformal, fields.grid.shape)
    return MetricField(
        grid=fields.grid, m=m, n=n, c2=c2, vx=fields.vx, vy=fields.vy,
        conformal=conformal, signature=signature,
    )


def _unbroadcast(a: np.ndarray) -> np.ndarray:
    """The values of `a` on the shape it had before broadcasting: a view
    with each zero-stride axis cut to length one, so a broadcast scalar
    gives one value and a full array is returned whole."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None)
                   for stride in a.strides)]


# ---------------------------------------------------------------------------
# marching squares

# corner offsets (a0, b0, a1, b1) of the two ends of each cell edge: the
# edge runs from corner (i + a0, j + b0) to corner (i + a1, j + b1)
_EDGE_CORNERS = np.array([(0, 0, 1, 0),    # 0 bottom
                          (1, 0, 1, 1),    # 1 right
                          (0, 1, 1, 1),    # 2 top
                          (0, 0, 0, 1)])   # 3 left
# row and column offsets that gather a cell's corners as [a, b] = (i + a, j + b)
_CORNER_ROWS = np.array([[0, 0], [1, 1]])
_CORNER_COLS = np.array([[0, 1], [0, 1]])


def _segment_table() -> np.ndarray:
    """(entry edge, exit edge) of the oriented segments of each cell, with
    the positive region kept on the LEFT of the walking direction; row
    `case`, or 16 + `case` for a saddle with a positive centre average,
    column 0 for the first segment and 1 for a saddle's second.  Corner
    order of the case index bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1),
    8=(i,j+1)."""
    table = np.zeros((32, 2, 2), np.intp)
    for case, pair in ((1, (0, 3)), (2, (1, 0)), (3, (1, 3)), (4, (2, 1)),
                       (6, (2, 0)), (7, (2, 3)), (8, (3, 2)), (9, (0, 2)),
                       (11, (1, 2)), (12, (3, 1)), (13, (0, 1)),
                       (14, (3, 0))):
        table[case, 0] = pair
    # saddles: a positive centre joins the positive diagonal, a
    # non-positive one cuts each positive corner off alone
    table[16 + 5] = (0, 1), (2, 3)
    table[5] = (0, 3), (2, 1)
    table[16 + 10] = (3, 0), (1, 2)
    table[10] = (1, 0), (3, 2)
    return table


_SEGMENTS = _segment_table()


def marching_squares(F, x: np.ndarray, y: np.ndarray, level: float = 0.0):
    """Contours F(x, y) = `level` by marching squares.

    Returns a list of polylines ((n, 2) arrays of (x, y) vertices) with
    linear interpolation along cell edges; the F > level region lies on
    the left of the walking direction.  Saddle cells are disambiguated
    with the cell-centre average.  Closed loops repeat their first vertex.

    `F` is read only through `F.shape` and its row bands `F[i:i + rows]`,
    `rows` = max(2, 2¹⁶ // F.shape[1]), each band sharing its last row
    with the next: an ndarray (whose bands are views), or any object with
    a 2-D `shape` whose row slices are float arrays, such as a source that
    forms the rows of F on demand (`find_horizon`).  Anything else is
    taken through `np.asarray` first.  F is never written, and no
    grid-sized temporary is formed: a nonzero `level` is subtracted band
    by band.

    Per band, the 4-bit case index of every cell is formed at once from
    the corner signs (Lorensen & Cline, "Marching cubes", SIGGRAPH 1987),
    and the cells the contour crosses (index neither 0 nor 15) keep their
    position, case and four corner values in row-major order.  After the
    last band their segments, one per cell and two per saddle, and every
    edge point x₀ + t(x₁ − x₀), t = f₀/(f₀ − f₁), are formed at once over
    arrays.  Vertices that round to the same multiple of 1e-9 (in the
    units of x and y) are one vertex, and a segment whose two ends are one
    vertex is dropped, so a level through grid vertices still gives one
    polyline per contour; only the chaining of segments at shared vertices
    into polylines runs in Python.

    `x` and `y` must be 1-D with the lengths of F's axes, else
    `ValueError`.  A band of F − `level` that is not finite (a NaN or an
    infinite value anywhere) raises `NumericalError`, as does a vertex too
    large for its 1e-9 key.
    """
    if not hasattr(F, "shape"):
        F = np.asarray(F, float)
    x, y = np.asarray(x), np.asarray(y)
    shape = tuple(F.shape)
    if len(shape) != 2 or x.shape != shape[:1] or y.shape != shape[1:]:
        raise ValueError(f"marching_squares needs 1-D x and y of F's sides: "
                         f"F {shape}, x {x.shape}, y {y.shape}")
    nx, ny = shape
    rows = max(2, _BAND_FLOATS // max(ny, 1))
    found = []                  # (ci, cj, case, corners) of each band
    # one band at least, so a one-row F is checked and has no cells
    for i0 in range(0, max(nx - 1, 1), rows - 1):
        band = np.asarray(F[i0:i0 + rows], float)
        if level:
            band = band - level
        if not np.isfinite(band).all():
            raise NumericalError(f"marching squares: F is not finite in rows "
                                 f"{i0}–{i0 + len(band) - 1}")
        # the case index P₃P₂P₁P₀ in one uint8 buffer, a bit at a time from
        # the top; then index − 1 (0 wraps to 255) is below 14 exactly on
        # the crossed cells, whose case is taken from one mask in row-major
        # order
        P = np.greater(band, 0).view(np.uint8)
        index = np.left_shift(P[:-1, 1:], 1)
        index |= P[1:, 1:]
        index <<= 1
        index |= P[1:, :-1]
        index <<= 1
        index |= P[:-1, :-1]
        del P
        index -= 1
        flat = np.flatnonzero(np.less(index, 14))
        case = index.ravel()[flat].astype(np.intp)
        case += 1
        ci, cj = np.divmod(flat, index.shape[1])
        del index, flat
        corners = band[ci[:, None, None] + _CORNER_ROWS,
                       cj[:, None, None] + _CORNER_COLS]
        ci += i0
        found.append((ci, cj, case, corners))
        del band                # freed before the next band is formed
    ci, cj, case, corners = (np.concatenate(parts) for parts in zip(*found))
    points = _segment_points(corners, x, y, ci, cj, case)

    # keys as floats: a coordinate of 9.2e9 or more overflows int64 keys
    keys = np.rint(points / 1e-9)
    if not np.isfinite(keys).all():
        raise NumericalError("marching squares: a contour vertex is not "
                             "finite or too large for its 1e-9 key")
    # a level through a grid vertex gives the cells around it segments that
    # start and end at that vertex; chained, they would branch the contour
    live = np.repeat((keys[0::2] != keys[1::2]).any(axis=1), 2)
    points, keys = points[live], keys[live]
    paths = _chain(list(zip(*keys.T.tolist())), len(points) // 2)
    return [points[p] for p in paths]


def _segment_points(corners, x, y, ci, cj, case) -> np.ndarray:
    """The oriented segments of the crossed cells (ci, cj) of case index
    `case` and corner values `corners` ([cell, a, b] = F at (ci + a,
    cj + b)): one per cell and two per saddle, in cell order, as vertex 2s
    (the start of segment s) and 2s + 1 (its end) of a (2·segments, 2)
    array.  A saddle's case is read as 16 + case when the average of its
    corners is positive."""
    is_saddle = (case == 5) | (case == 10)
    saddle = np.flatnonzero(is_saddle)
    k = corners[saddle]
    centre = 0.25 * (k[:, 0, 0] + k[:, 1, 0] + k[:, 1, 1] + k[:, 0, 1])
    case[saddle[centre > 0]] += 16

    cell = np.repeat(np.arange(len(case)), 1 + is_saddle)
    second = np.zeros(len(cell), np.intp)
    second[1:] = cell[1:] == cell[:-1]
    edge = _SEGMENTS[case[cell], second].ravel()
    a0, b0, a1, b1 = _EDGE_CORNERS[edge].T
    vertex_cell = np.repeat(cell, 2)
    i, j = ci[vertex_cell], cj[vertex_cell]
    f0 = corners[vertex_cell, a0, b0]
    t = f0 / (f0 - corners[vertex_cell, a1, b1])
    points = np.empty((len(edge), 2))
    points[:, 0] = x[i + a0] + t * (x[i + a1] - x[i + a0])
    points[:, 1] = y[j + b0] + t * (y[j + b1] - y[j + b0])
    return points


def _chain(keys: list, count: int) -> list:
    """Chain segments s = 0 … count − 1, from vertex 2s to vertex 2s + 1 (of
    key `keys[v]`), into lists of vertex ids.

    Segments are indexed by start key, in order of first appearance, and
    by end key.  Each path starts with the first segment of the first
    remaining start key, walks forward until it closes or ends, and an
    open path is then extended backward; a segment taken from one index
    is dropped from the other."""
    by_start, by_end = {}, {}
    for s in range(count):
        by_start.setdefault(keys[2 * s], []).append(s)
    for ids in by_start.values():
        for s in ids:
            by_end.setdefault(keys[2 * s + 1], []).append(s)

    def take(index, key):
        ids = index[key]
        s = ids.pop(0)
        if not ids:
            del index[key]
        return s

    def drop(index, key, s):
        ids = index[key]
        ids.remove(s)
        if not ids:
            del index[key]

    paths = []
    while by_start:
        s = take(by_start, next(iter(by_start)))
        drop(by_end, keys[2 * s + 1], s)
        path = [2 * s, 2 * s + 1]
        while True:                      # forward
            k = keys[path[-1]]
            if k == keys[path[0]] or k not in by_start:
                break
            s = take(by_start, k)
            drop(by_end, keys[2 * s + 1], s)
            path.append(2 * s + 1)
        if keys[path[-1]] != keys[path[0]]:
            while True:                  # backward, for open chains
                k = keys[path[0]]
                if k not in by_end:
                    break
                s = take(by_end, k)
                drop(by_start, keys[2 * s], s)
                path.insert(0, 2 * s)
        paths.append(path)
    return paths


class _HorizonFunction:
    """F = (vx² + vy²) − c² of a background, formed a band of rows at a
    time for `marching_squares`: `F[i:j]` is a new array of those rows,
    with vy² added through a 64 KB block buffer, so every value is that of
    the whole-grid arithmetic and no grid-sized array is formed."""

    def __init__(self, fields: HydroFields):
        self.vx, self.vy, self.c2 = fields.vx, fields.vy, fields.c2
        self.shape = fields.grid.shape

    def __getitem__(self, rows: slice) -> np.ndarray:
        # an overflowing square is refused as not finite by the caller
        with np.errstate(over="ignore"):
            band = np.square(self.vx[rows])
            vy = self.vy[rows]
            block = max(1, _BLOCK_FLOATS // band.shape[1])
            buf = np.empty((min(block, len(band)), band.shape[1]))
            for i in range(0, len(band), block):
                part = band[i:i + block]
                part += np.square(vy[i:i + block], out=buf[:len(part)])
        band -= self.c2[rows]
        return band


def find_horizon(fields: HydroFields) -> list:
    """Sonic horizons: contours of F = |v₀|² − c_ex² = 0.

    Empty list when the flow is everywhere sub- or supercritical.  The
    superexcitonic region (F > 0, flow faster than the excitation speed)
    lies on the left of each polyline's walking direction.  An F that
    overflows raises `NumericalError`.  F is never formed as a grid:
    `marching_squares` reads it in bands of rows, each formed when it is
    read (`_HorizonFunction`), so the search holds vx, vy and c² plus
    buffers of one band.

    The contour |v₀| = c_ex is the horizon of a flow normal to it, such as
    a radial sink or a 1-D flow.  Where the flow has a tangential part
    (a swirl), it is the ergosurface, not the horizon.
    """
    if np.any(_unbroadcast(fields.c2) <= 0):
        raise PhysicsGateError("horizon analysis requires c_ex² > 0 on the grid")
    return marching_squares(_HorizonFunction(fields), fields.grid.x,
                            fields.grid.y, level=0.0)
