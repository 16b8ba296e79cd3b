"""photonfluid: from reservoir-engineered optomechanics to analog spacetime.

The chain: an ancillary cavity makes a mechanical mode broadband (`rdr`);
eliminating it leaves an effective Kerr photon-photon coupling
(`elimination`), realized either in a planar microcavity or as the
continuum limit of an optomechanical array (`lattice`); the resulting 2D
photon fluid evolves under the NLSE (`fluid`); its phase fluctuations see
an acoustic curved-spacetime metric with sonic horizons (`geometry`) and
obey a massless Klein-Gordon equation there (`kgwave`).
"""

__version__ = "0.1.0"

from .elimination import (KernelParams, MicrocavityGeometry, kerr_coupling,
                          memory_kernel, memory_kernel_inf,
                          microcavity_params, validate_elimination)
from .fluid import (ComplexField2D, FluidParams, Grid, bogoliubov_dispersion,
                    evolve, gp_energy, ground_state, linearized_step,
                    measure_dispersion, uniform_background)
from .geometry import (HydroFields, MetricField, build_metric, find_horizon,
                       hydro_linear_step, madelung,
                       estimate_density_fluctuation)
from .kgwave import crosscheck_kg_vs_nlse, dalembertian, kg_energy, kg_evolve
from .lattice import (LatticeParams, LatticeState, continuum_error,
                      continuum_params, lattice_dispersion, step_lattice)
from .rdr import (OptomechParams, RdrReport, final_phonon_number, gamma_opt,
                  n_min_resolved_sideband, omega_opt, optical_susceptibility,
                  rdr_report, self_energy, stability_check, steady_state,
                  thermal_occupancy)
from .fieldio import read_field, write_field
from .config import RunConfig, parse_config
