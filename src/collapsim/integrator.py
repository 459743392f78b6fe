"""Itô stepping of the nonlinear stochastic Schroedinger flow.

Each step applies the stochastic shift first, with all coefficients
evaluated at the step's starting state (Ito convention), then a
deterministic unitary sub-step:

    psi -> psi + D psi dxi - (1/2) D^2 psi dt        (shift, D diagonal)
    psi -> U(dt) psi                                  (unitary)

followed by optional renormalization. D sums the scaled diagonals of
every collapse operator handed to the step. When the summed diagonal
is exactly zero (kappa = 0, or no pairs) a run hands the step no
operators and draws no increment, so such runs are bit-identical to
the bare unitary flow.

Every run steps one system: a ``GridSystem`` (a grid basis and its
pairs) or a ``FiniteSystem`` (a labelled basis with an explicit
diagonal, rate and energy), which has no unitary sub-step.

The grid's unitary sub-step is either a Strang-split spectral propagator
(exact free kinetic phase) or a Crank-Nicolson update of the
three-point stencil Hamiltonian. The free kinetic phase
exp(-i dt sum_d k_d^2 / 2 m_d) factors by axis, so the split step
applies one cached unitary n x n matrix per axis, F^-1 diag(phase_d) F,
with no transform. The Crank-Nicolson step is the Cayley transform of
the summed stencil symbol, which does not factor; it is applied as a
cached full-shape phase array between ``fftn`` and ``ifftn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collapse import collapse_from_diagonal, collapse_sum, total_diagonal
from .noise import WienerProcess
from .operators import (
    AngularMomentumZOperator,
    KineticOperator,
    LinearOperator,
    MomentumOperator,
    PairGeometry,
    SumOperator,
    _apply_along_axis,
    _free_propagator,
    _pair_potential,
    hamiltonian_operator,
    kinetic_symbol,
)
from .state import (
    FiniteBasis,
    GridBasis,
    HilbertState,
    branch_split,
)

__all__ = [
    "GridSystem",
    "FiniteSystem",
    "IntegratorConfig",
    "UnitaryStepper",
    "StepDiagnostics",
    "DensityChange",
    "TrajectoryRecord",
    "EnsembleResult",
    "ito_step",
    "density_change_decomposition",
    "run_trajectory",
    "run_schrodinger_reference",
    "run_ensemble",
]

# stepping scheme -> scheme of the derivatives taken along its runs
SCHEMES = {"split_step_spectral": "spectral", "crank_nicolson_stencil": "stencil"}
# observables a run can record, all on a grid system (momentum_y and
# angular_momentum need at least two spatial dimensions); a finite system
# has no Hamiltonian and records none
OBSERVABLES = ("momentum", "momentum_y", "angular_momentum", "kinetic", "energy")


@dataclass(frozen=True)
class GridSystem:
    """Particles on a periodic grid and the pairs that interact among them.

    Every run derives the collapse term of each step from the pairs'
    potentials. The system holds no ``PairGeometry``: a run builds one
    per pair and frees it on return, so a system kept between runs pins
    no full-shape field. Holding them raised the peak RSS of one
    ``cli.main`` call on ``bench/configs/conservation_suite.json`` from
    224.8 to 278.8 MB, because the momentum block reuses its fine 32^4
    system for the spectral identity check, the call that sets the peak.
    """

    basis: GridBasis
    pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))


@dataclass(frozen=True)
class FiniteSystem:
    """A labelled few-level model of the collapse term.

    ``diagonal`` stands in for the interaction potential, one value per
    label. A labelled basis has no geometry to derive the rate and the
    energy from, so ``gamma`` and ``energy_denominator`` (E) are given.
    The system has no Hamiltonian: its runs make no unitary sub-step and
    record no observables.
    """

    basis: FiniteBasis
    diagonal: tuple
    gamma: float
    energy_denominator: float
    # the diagonal as a read-only array, for the per-step operator
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diagonal", tuple(float(v) for v in self.diagonal))
        if len(self.diagonal) != len(self.basis.labels):
            raise ValueError("diagonal needs one value per label")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.energy_denominator > 0.0:
            raise ValueError("energy_denominator must be positive")
        object.__setattr__(self, "values", np.array(self.diagonal))
        self.values.flags.writeable = False


@dataclass
class IntegratorConfig:
    """Step size, scheme, recording and collapse gain of one run.

    The physics of what is stepped lives in the run's system.
    """

    dt: float
    n_steps: int
    scheme: str = "split_step_spectral"
    kappa: float = 1.0
    c: float = 1.0
    renormalize: bool = True
    real_noise: bool = False
    record_every: int = 1
    absorb_threshold: float = 1e-3
    stop_on_absorb: bool = True
    record_observables: tuple = ()

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {tuple(SCHEMES)}")
        if not self.kappa >= 0.0:
            raise ValueError("kappa must be non-negative")
        if not self.c > 0.0:
            raise ValueError("c must be positive")
        if not 0.0 < self.absorb_threshold < 0.5:
            raise ValueError("absorb_threshold must lie in (0, 0.5)")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    @property
    def derivative_scheme(self) -> str:
        return SCHEMES[self.scheme]

    def validate_grid(self, basis: GridBasis) -> None:
        """Stencil time steps must resolve the fastest lattice mode."""
        if self.scheme != "crank_nicolson_stencil":
            return
        h = basis.grid.spacing
        bound = 0.25 * h * h * min(basis.masses)
        if self.dt > bound:
            raise ValueError(
                f"dt={self.dt:g} exceeds stencil stability bound {bound:g} "
                f"(0.25 * h^2 * min mass)"
            )


class UnitaryStepper:
    """Cached one-step propagator of a grid run's deterministic sub-step.

    The pair potentials come from ``geometries`` (one ``PairGeometry``
    per pair) when given, else they are computed here. The split step
    holds one read-only free propagator matrix per axis; the
    Crank-Nicolson step holds its full-shape Cayley phase.
    """

    def __init__(self, basis: GridBasis, dt: float, scheme: str = "split_step_spectral",
                 pairs: tuple = (), geometries=None):
        if scheme == "split_step_spectral":
            n, h = basis.grid.points_per_axis, basis.grid.spacing
            self._axis_propagators = tuple(
                _free_propagator(n, h, dt, basis.axis_mass(axis))
                for axis in range(basis.n_axes))
            self._kinetic_phase = None
        else:
            # Cayley transform of the stencil symbol: unconditionally
            # unitary, second order, no linear solve needed since the
            # stencil diagonalizes in the Fourier basis.
            half = 0.5j * dt * kinetic_symbol(basis, scheme=SCHEMES[scheme])
            self._kinetic_phase = (1.0 - half) / (1.0 + half)
            self._axis_propagators = None
        if pairs:
            v_total = _pair_potential(basis, pairs, geometries)
            self._half_potential_phase = np.exp(-0.5j * dt * v_total)
        else:
            self._half_potential_phase = None

    def _kinetic(self, amplitudes):
        if self._axis_propagators is None:
            return np.fft.ifftn(self._kinetic_phase * np.fft.fftn(amplitudes))
        for axis, matrix in enumerate(self._axis_propagators):
            amplitudes = _apply_along_axis(matrix, amplitudes, axis)
        return amplitudes

    def step(self, amplitudes: np.ndarray) -> np.ndarray:
        if self._half_potential_phase is None:
            return self._kinetic(amplitudes)
        amp = self._kinetic(self._half_potential_phase * amplitudes)
        return self._half_potential_phase * amp


@dataclass(frozen=True)
class StepDiagnostics:
    norm_before_renormalize: float
    shift_applied: bool


@dataclass(frozen=True)
class DensityChange:
    """First-order density budget of one step, both fields real.

    ``hamiltonian_part`` integrates to zero on the grid (probability
    transport); ``stochastic_part`` integrates to the pre-renormalization
    norm change produced by the shift.
    """

    hamiltonian_part: np.ndarray
    stochastic_part: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.hamiltonian_part + self.stochastic_part


def ito_step(state: HilbertState, collapse_ops, increment: complex,
             config: IntegratorConfig, stepper: UnitaryStepper | None = None):
    """One full step; returns the new state plus StepDiagnostics.

    The shift uses the summed diagonal of ``collapse_ops``; with none
    given it is skipped. With ``config.renormalize`` a
    pre-renormalization norm that is zero or not finite raises
    ``FloatingPointError``.
    """
    amp = state.amplitudes
    if collapse_ops:
        diag = total_diagonal(collapse_ops)
        amp = amp * (1.0 + diag * increment - 0.5 * diag * diag * config.dt)
    if stepper is not None:
        amp = stepper.step(amp)
    norm_pre = math.sqrt(np.vdot(amp, amp).real * state.basis.weight)
    if config.renormalize:
        if norm_pre == 0.0 or not math.isfinite(norm_pre):
            raise FloatingPointError(
                f"state norm became {norm_pre!r} during a step")
        amp = amp / norm_pre
    new = HilbertState(state.basis, amp, state.time + config.dt)
    return new, StepDiagnostics(norm_before_renormalize=norm_pre,
                                shift_applied=bool(collapse_ops))


def density_change_decomposition(state: HilbertState, collapse_ops, increment: complex,
                                 config: IntegratorConfig,
                                 hamiltonian: LinearOperator | None = None) -> DensityChange:
    """Split the leading-order density change into transport and shift parts.

    Evaluated at the step's starting state, matching the Ito convention
    of ``ito_step``. Both returned fields carry the basis weight of the
    state's own quadrature, i.e. summing ``field * weight`` integrates.
    """
    amp = state.amplitudes
    if hamiltonian is not None:
        h_amp = hamiltonian.apply(amp)
        ham_part = (1j * (np.conj(h_amp) * amp - np.conj(amp) * h_amp) * config.dt).real
    else:
        ham_part = np.zeros(amp.shape)
    if collapse_ops:
        diag = total_diagonal(collapse_ops)
        dens = (np.conj(amp) * amp).real
        stoch_part = dens * diag * (2.0 * np.real(increment))
    else:
        stoch_part = np.zeros(amp.shape)
    return DensityChange(hamiltonian_part=ham_part, stochastic_part=stoch_part)


@dataclass
class TrajectoryRecord:
    """Recorded time series of one stochastic run."""

    times: np.ndarray
    weight_in: np.ndarray
    weight_out: np.ndarray
    norms_before_renormalize: np.ndarray
    expectations: dict = field(default_factory=dict)
    outcome: str | None = None
    steps_taken: int = 0
    seed: int = 0
    final_state: HilbertState | None = None

    @property
    def max_norm_drift(self) -> float:
        if self.norms_before_renormalize.size == 0:
            return 0.0
        return float(np.max(np.abs(self.norms_before_renormalize - 1.0)))


def _build_observables(system, config, geometries):
    ops = {}
    basis, scheme = system.basis, config.derivative_scheme
    for name in config.record_observables:
        if name not in OBSERVABLES:
            raise ValueError(f"unknown observable {name!r}, expected one of {OBSERVABLES}")
        if name == "momentum":
            ops[name] = MomentumOperator(basis, dim=0, scheme=scheme)
        elif name == "momentum_y":
            ops[name] = MomentumOperator(basis, dim=1, scheme=scheme)
        elif name == "angular_momentum":
            ops[name] = AngularMomentumZOperator(basis, scheme=scheme)
        elif name == "kinetic":
            ops[name] = KineticOperator(basis, scheme=scheme)
        else:
            ops[name] = hamiltonian_operator(basis, system.pairs, scheme=scheme,
                                             geometries=geometries)
    return ops


def _observable_fields(observables, amp):
    """Each observable applied to ``amp``, by name.

    When the kinetic term is recorded too, the energy reuses its field:
    the grid Hamiltonian is the kinetic operator, plus the potential
    diagonal when there are pairs, so ``kinetic + V amp`` adds the same
    terms in the same order as applying the Hamiltonian.
    """
    fields = {name: op.apply(amp) for name, op in observables.items()
              if name != "energy"}
    energy = observables.get("energy")
    kinetic = fields.get("kinetic")
    if energy is None:
        return fields
    if kinetic is None:
        fields["energy"] = energy.apply(amp)
    elif isinstance(energy, SumOperator):
        out = kinetic
        for op in energy.ops[1:]:
            out = out + op.apply(amp)
        fields["energy"] = out
    else:
        # no pairs: the Hamiltonian is the kinetic operator itself
        fields["energy"] = kinetic
    return fields


def _ops_split(state, ops):
    """In-branch mask and weight of ``state`` by the summed centred
    fields of ``ops``, recentred on ``state``.

    Operators centred on the step's starting state leave a small second
    mean, which stays exact where a fresh V - <V> would round to zero on
    a state almost entirely in one level. The fields are unscaled, so
    the branches stay defined at ``kappa = 0``. Without operators the
    whole state is out.
    """
    if not ops:
        return False, 0.0
    centred = ops[0].centered
    for op in ops[1:]:
        centred = centred + op.centered
    return branch_split(state, centred)[:2]


def _setup(system, config):
    """Unitary stepper, recorded observables and per-step collapse
    operator builder of one run of ``system``.

    A grid run builds one ``PairGeometry`` per pair here, shared by the
    stepper, the energy observable and the builder, and freed with them
    when the run returns. A finite run has no unitary sub-step and no
    observables, and reuses the system's diagonal with its rate.
    """
    if isinstance(system, FiniteSystem):
        if config.record_observables:
            raise ValueError("a finite system records no observables, got %r"
                             % (config.record_observables,))

        def collapse_ops(state):
            return [collapse_from_diagonal(state, system.values, gamma_value=system.gamma,
                                           energy_denominator=system.energy_denominator,
                                           kappa=config.kappa)]
        return None, {}, collapse_ops

    basis, pairs = system.basis, system.pairs
    config.validate_grid(basis)
    geometries = tuple(PairGeometry(basis, pair) for pair in pairs)
    stepper = UnitaryStepper(basis, config.dt, scheme=config.scheme, pairs=pairs,
                             geometries=geometries)
    observables = _build_observables(system, config, geometries)

    def collapse_ops(state):
        return collapse_sum(state, pairs, kappa=config.kappa, c=config.c,
                            scheme=config.derivative_scheme, geometries=geometries)
    return stepper, observables, collapse_ops


def run_trajectory(system: GridSystem | FiniteSystem, initial: HilbertState,
                   config: IntegratorConfig, seed: int = 0,
                   per_step=None) -> TrajectoryRecord:
    """Integrate one stochastic trajectory of ``system`` from ``initial``.

    Grid runs derive the collapse operator of every pair afresh each
    step (the rate tracks the evolving state); finite runs reuse the
    system's diagonal with its rate. Operators are built only for steps
    that are taken: the branch split of each new state (recorded, and
    tested against the absorption threshold) recentres the operators of
    the step that produced it. Recording happens at step multiples of
    ``record_every`` plus the initial and final points.
    ``per_step(step_index, state, ops, increment)`` is invoked before
    each step for callers that accumulate extra diagnostics.
    """
    stepper, observables, collapse_ops = _setup(system, config)
    wiener = WienerProcess(seed, real_noise=config.real_noise)

    state = initial
    theta = config.absorb_threshold
    times, w_in_series, w_out_series, norm_series = [], [], [], []
    exp_series = {key: [] for name in observables
                  for key in (name, name + "_in", name + "_out")}
    outcome = None
    steps_taken = 0

    def record(state, in_mask, w_in):
        times.append(state.time)
        w_in_series.append(w_in)
        w_out_series.append(1.0 - w_in)
        if not observables:
            return
        amp = state.amplitudes
        in_mask = np.broadcast_to(in_mask, amp.shape)
        masks = (in_mask, ~in_mask)
        conj = np.conj(amp)
        dens = (conj * amp).real
        branch_weights = [float(np.sum(dens[mask])) for mask in masks]
        # the density is not needed while the fields are built; holding it
        # raises peak RSS of a 16^4 run by 1 MiB
        del dens
        total = np.vdot(amp, amp).real
        fields = _observable_fields(observables, amp)
        for name in observables:
            applied = fields[name]
            # every supported observable is hermitian: record the real part
            exp_series[name].append(complex(np.vdot(amp, applied) / total).real)
            # branch-normalized expectations, nan where a branch is empty
            local = (conj * applied).real
            for mask, w, suffix in zip(masks, branch_weights, ("_in", "_out")):
                exp_series[name + suffix].append(
                    float(np.sum(local[mask]) / w) if w > 0.0 else float("nan"))

    ops = collapse_ops(state)
    absorbing = config.stop_on_absorb and bool(ops)
    record(state, *_ops_split(state, ops))
    for step in range(config.n_steps):
        if step > 0:
            ops = collapse_ops(state)
        shifting = bool(ops) and total_diagonal(ops).any()
        increment = wiener.increment(config.dt) if shifting else 0.0
        if per_step is not None:
            per_step(step, state, ops, increment)
        state, diag = ito_step(state, ops if shifting else (), increment, config,
                               stepper=stepper)
        norm_series.append(diag.norm_before_renormalize)
        steps_taken = step + 1
        at_record = (steps_taken % config.record_every == 0) or steps_taken == config.n_steps
        if not (at_record or absorbing):
            continue
        in_mask, w_in = _ops_split(state, ops)
        if at_record:
            record(state, in_mask, w_in)
        if absorbing:
            if w_in >= 1.0 - theta:
                outcome = "in"
                break
            if w_in <= theta:
                outcome = "out"
                break

    if times[-1] != state.time:
        # only an absorbing step ends a run unrecorded; its split is at hand
        record(state, in_mask, w_in)
    return TrajectoryRecord(
        times=np.asarray(times),
        weight_in=np.asarray(w_in_series),
        weight_out=np.asarray(w_out_series),
        norms_before_renormalize=np.asarray(norm_series),
        expectations={key: np.asarray(vals) for key, vals in exp_series.items()},
        outcome=outcome,
        steps_taken=steps_taken,
        seed=seed,
        final_state=state,
    )


def run_schrodinger_reference(system: GridSystem | FiniteSystem, initial: HilbertState,
                              config: IntegratorConfig) -> HilbertState:
    """Deterministic companion run: same stepping, no shift branch."""
    stepper, _, _ = _setup(system, config)
    state = initial
    for _ in range(config.n_steps):
        state, _ = ito_step(state, [], 0.0, config, stepper=stepper)
    return state


@dataclass
class EnsembleResult:
    """Stacked trajectory statistics on a shared record clock.

    ``weight_in`` holds one row per trajectory; rows that stopped at an
    absorption threshold are padded with their final value, which is
    the natural continuation for resolved runs.
    """

    times: np.ndarray
    weight_in: np.ndarray
    outcomes: list
    steps_taken: np.ndarray
    seeds: np.ndarray
    max_norm_drift: float

    @property
    def n_trajectories(self) -> int:
        return self.weight_in.shape[0]

    @property
    def mean_weight_in(self) -> np.ndarray:
        return self.weight_in.mean(axis=0)

    @property
    def fraction_absorbed_in(self) -> float:
        return sum(1 for o in self.outcomes if o == "in") / len(self.outcomes)

    @property
    def fraction_unresolved(self) -> float:
        return sum(1 for o in self.outcomes if o is None) / len(self.outcomes)

    def binomial_sigma(self, p: float | None = None) -> float:
        if p is None:
            p = self.fraction_absorbed_in
        n = self.n_trajectories
        return float(np.sqrt(max(p * (1.0 - p), 1e-12) / n))


def run_ensemble(system: GridSystem | FiniteSystem, initial: HilbertState,
                 config: IntegratorConfig, n_trajectories: int = 100,
                 master_seed: int = 0) -> EnsembleResult:
    """Run independent trajectories with per-index derived seeds."""
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    n_records = 1 + (config.n_steps + config.record_every - 1) // config.record_every
    times = None
    outcomes, steps, seeds = [], [], []
    drift = 0.0
    rows = []
    for index in range(n_trajectories):
        seed = master_seed + index
        rec = run_trajectory(system, initial, config, seed=seed)
        row = rec.weight_in
        if row.size < n_records:
            row = np.concatenate([row, np.full(n_records - row.size, row[-1])])
        rows.append(row[:n_records])
        if times is None or rec.times.size > times.size:
            times = rec.times
        outcomes.append(rec.outcome)
        steps.append(rec.steps_taken)
        seeds.append(seed)
        drift = max(drift, rec.max_norm_drift)
    full_times = np.asarray(times)
    if full_times.size < n_records:
        # every run absorbed early; extend the clock nominally
        extra = np.arange(1, n_records - full_times.size + 1)
        full_times = np.concatenate([full_times, full_times[-1] + extra * config.dt * config.record_every])
    return EnsembleResult(
        times=full_times[:n_records],
        weight_in=np.vstack(rows),
        outcomes=outcomes,
        steps_taken=np.asarray(steps),
        seeds=np.asarray(seeds),
        max_norm_drift=drift,
    )
