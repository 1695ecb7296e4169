"""Reference evaluators the tests check the package against: the Hermitian
inner product and a complex Gaussian sampler, numpy's own seeding of a
trial's generator, a stand-in generator of fixed normals, channel
synthesis drawn sensor by sensor in complex numpy, which also gives the
true channels and errors that synthesize_instance does not return, the
scalars a realized-mode sweep scores drawn from the model as written, one
sweep trial run alone, a sweep run cell by cell, co-phasing RIS vectors, a Design that carries RIS
vectors and the designs of the scalar core with them, the per-sensor
worst-case term, the worst-case objective and the MSE at given errors evaluated on the full channel arrays
and the design's RIS vectors, row norms of complex arrays, the MSE of a
design on known true channels, in closed form and by Monte Carlo, a
sampler of perturbations inside an uncertainty ball, the paper's
alternating loop (Algorithm 1) written sensor by sensor, the inverse
of config parsing, a sweep cell's expected NMSE at N = 1 by
quadrature, its limit as N grows, in closed form, and a solve design in
50-digit decimal arithmetic."""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from aircomp_ris.errors import AirCompError
from aircomp_ris.experiments import (
    ALGORITHM1_PASSES,
    AggregateRecord,
    _config_at,
    _design_and_score,
    snr_to_noise_var,
    trials_per_block,
)
from aircomp_ris.model import draw_scalars
from aircomp_ris.optimizer import Design, robust_scalars, t_exact


def inner(a, b):
    """Hermitian inner product sum_i conj(a_i) b_i over the last axis, so
    (K, N) operands give the K row products."""
    return np.vecdot(a, b)


def sample_rayleigh_vector(n, variance, rng):
    """Draw a length-n vector of i.i.d. CN(0, variance) entries."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    scale = np.sqrt(variance / 2.0)
    return rng.normal(0.0, 1.0, n) * scale + 1j * rng.normal(0.0, 1.0, n) * scale


def seeded_rng(seed):
    """The generator numpy itself seeds from a seed tuple."""
    return np.random.default_rng(np.random.SeedSequence(seed))


class FixedNormals:
    """Stands in for a Generator whose normal stream is the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.drawn = 0

    def _next(self, n):
        self.drawn += n
        return self.values[self.drawn - n : self.drawn]

    def standard_normal(self, out):
        out[...] = self._next(out.size).reshape(out.shape)

    def normal(self, loc, scale, size):
        return loc + scale * self._next(size)


def reference_synthesis(config, rng):
    """synthesize_instance's draw written sensor by sensor in plain complex
    numpy: g_k and r_k, then for s > 0 the error direction, even where
    eps_k underflows to 0, and, for interior errors, one uniform for its
    radius. Returns (g, r, h, h_hat,
    eps, deltas) with h = g * conj(r) and h_hat = h - conj(deltas); for a
    sequence of generators, one per trial, each array gains a trial axis."""
    if isinstance(rng, (list, tuple)):
        trials = [reference_synthesis(config, gen) for gen in rng]
        return tuple(np.stack(arrays) for arrays in zip(*trials))
    K, N = config.K, config.N
    seg = 0.5  # CN(0, 1/2) entries: real and imaginary parts of variance 1/4
    g = np.empty((K, N), dtype=complex)
    r = np.empty_like(g)
    deltas = np.zeros_like(g)
    eps = np.empty(K)
    for k in range(K):
        g[k] = rng.normal(0.0, 1.0, N) * seg + 1j * rng.normal(0.0, 1.0, N) * seg
        r[k] = rng.normal(0.0, 1.0, N) * seg + 1j * rng.normal(0.0, 1.0, N) * seg
        eps[k] = config.s * np.linalg.norm(g[k] * np.conj(r[k]))
        if config.s > 0:
            scale = np.sqrt(0.5)
            d = rng.normal(0.0, 1.0, N) * scale + 1j * rng.normal(0.0, 1.0, N) * scale
            d = d / np.linalg.norm(d)
            if config.error_sampling == "interior":
                d = eps[k] * rng.uniform() ** (1.0 / (2 * N)) * d
            else:
                d = eps[k] * d
            deltas[k] = d
    h = g * np.conj(r)
    return g, r, h, h - np.conj(deltas), eps, deltas


def model_sampler(config, rng, trials):
    """The per-sensor scalars a realized-mode sweep scores, (a, eps, c,
    ||delta||), each (trials, K), drawn slowly from the system model as the
    paper states it, in complex arithmetic and sharing no code with the
    package: segments g and r of i.i.d. CN(0, 1/2) entries, the channel
    h = g * conj(r), an error delta of radius eps = s ||h|| in a uniform
    direction of C^N, on the sphere ("surface") or uniform in the ball
    ("interior"), the estimate h_hat = h - conj(delta), RIS phases v
    co-phased to h_hat, a = h_hat^H v and c = delta @ v.

    Frozen: it is the law a change to the package's draw is judged by, so
    no such change may edit it."""
    K, N, s = config.K, config.N, config.s
    shape = (trials, K, N)

    def complex_normal(variance):
        parts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.sqrt(variance / 2) * parts

    g, r = complex_normal(0.5), complex_normal(0.5)
    h = g * np.conj(r)
    eps = s * np.linalg.norm(h, axis=-1)
    direction = complex_normal(1.0)
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = eps
    if config.error_sampling == "interior":  # uniform in the 2N-dimensional ball
        radius = eps * rng.uniform(size=(trials, K)) ** (1 / (2 * N))
    delta = radius[..., None] * direction
    h_hat = h - np.conj(delta)
    v = np.exp(1j * np.angle(h_hat))  # angle 0, so v = 1, where h_hat is 0
    a = np.sum(np.conj(h_hat) * v, axis=-1).real
    c = np.sum(delta * v, axis=-1)
    return a, eps, c, np.linalg.norm(delta, axis=-1)


def channel_seed(master_seed, kind, value_index, s_index, trial):
    """Seed tuple of one sweep cell trial's channel draw, as README documents
    it: (master_seed, kind code, value index, s index, 4, trial)."""
    code = {"snr": 0, "n": 1, "k": 2}[kind]
    return (master_seed, code, value_index, s_index, 4, trial)


def run_trial(config, scheme, seed):
    """One Monte Carlo trial as a sweep runs it, a block of one trial drawn
    from numpy's own seeding of the seed tuple as the per-sensor scalars of
    the config's eval_mode; returns its NMSE."""
    draw = draw_scalars(config, [seeded_rng(seed)])
    return float(_design_and_score(config, scheme, draw)[0])


def reference_run_sweep(spec):
    """run_sweep as it once ran, cell by cell: each (value, s) cell builds
    its config, draws its trials in blocks of trials_per_block, each trial
    from numpy's own seeding of its seed tuple, designs and scores every
    scheme on each block alone, and takes its records from its own NMSEs."""
    s_values = spec.s_values  # [spec.base.s] when the config gives none
    multiple_s = len(s_values) > 1
    records = []
    for vi, value in enumerate(spec.values):
        row = []
        for si, s in enumerate(s_values):
            config = _config_at(spec.base, spec.kind, value, s)
            block = trials_per_block(config)
            nmses = np.empty((len(spec.schemes), spec.trials))
            for lo in range(0, spec.trials, block):
                hi = min(lo + block, spec.trials)
                rngs = [
                    seeded_rng(channel_seed(spec.master_seed, spec.kind, vi, si, trial))
                    for trial in range(lo, hi)
                ]
                draw = draw_scalars(config, rngs)
                for j, scheme in enumerate(spec.schemes):
                    nmses[j, lo:hi] = _design_and_score(config, scheme, draw)
            if not np.isfinite(nmses).all():
                raise AirCompError(f"NMSE is not finite at {spec.kind} {value}, s {s}")
            for j, scheme in enumerate(spec.schemes):
                passes = ALGORITHM1_PASSES if scheme == "robust_exact" else 0
                row.append(
                    AggregateRecord(
                        kind=spec.kind,
                        value=value,
                        scheme=f"{scheme}|s={s:g}" if multiple_s else scheme,
                        nmse_mean=float(np.mean(nmses[j])),
                        nmse_std=float(np.std(nmses[j])),
                        trials=spec.trials,
                        mean_iters=float(passes),
                    )
                )
        row.sort(key=lambda rec: rec.scheme)
        records.extend(row)
    return records


def cophase(h_hat):
    """Co-phasing RIS vectors v_i = exp(j*arg(h_hat_i)) (phase 0 where an
    entry is zero), which make inner(h_hat, v) = sum_i |h_hat_i| real and
    maximal among unit-modulus vectors; row by row on a (..., K, N) array."""
    h_hat = np.asarray(h_hat, dtype=complex)
    ones = np.ones_like(h_hat)
    return np.divide(h_hat, np.abs(h_hat), out=ones, where=h_hat != 0)


@dataclass
class RISDesign(Design):
    """A Design with (..., K, N) unit-modulus RIS vectors v, for the
    reference forms that score complex channel arrays."""

    v: np.ndarray


def cophased_design(config, h_hat, eps=None):
    """m and t of robust_scalars given the radii eps, and at radius 0 (the
    non-robust baseline) without them, from the gains ||h_hat_k||_1, with
    co-phased RIS vectors; for each trial of a (..., K, N) block."""
    a = np.abs(h_hat).sum(axis=-1)
    eps_rootN = 0.0 if eps is None else np.asarray(eps, dtype=float) * np.sqrt(config.N)
    design = robust_scalars(a, eps_rootN, config.noise_var, config.P)
    return RISDesign(design.m, design.t, cophase(h_hat))


def worst_case_objective(design, h_hat_set, eps_set, noise_var):
    """Total worst-case MSE from the channel arrays and the design's RIS
    vectors: sum_k ref_term + noise_var * m^2, per trial of a (..., K, N)
    block."""
    if np.shape(h_hat_set)[-2] != design.K or np.shape(eps_set)[-1] != design.K:
        raise AirCompError("h_hat_set/eps_set must have K rows")
    terms = ref_term(design.t_hat, h_hat_set, design.v, eps_set)
    total = noise_var * np.float_power(design.m, 2) + np.sum(terms, axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def row_norms(x):
    """Euclidean norm over the last axis, summed as np.linalg.norm sums a
    single complex vector (real and imaginary parts apart)."""
    x = np.asarray(x)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def mse_at_error(design, h_hat_set, delta_set, noise_var, eps_set=None):
    """MSE conditioned on the estimate, at the supplied row perturbations,
    from the channel arrays and the design's RIS vectors, per trial of a
    (..., K, N) block: sum_k |t_hat_k (h_hat_k^H + delta_k) v_k - 1|^2 +
    noise_var * m^2.

    When eps_set is given, each ||delta_k|| is checked against its radius
    (with a small slack for roundoff).
    """
    h_hat_set = np.asarray(h_hat_set)
    delta_set = np.asarray(delta_set)
    if h_hat_set.shape != delta_set.shape or h_hat_set.shape[-2] != design.K:
        raise AirCompError("h_hat_set/delta_set shape mismatch")
    if eps_set is not None:
        eps_set = np.asarray(eps_set)
        nd = row_norms(delta_set)
        out = nd > eps_set * (1 + 1e-9) + 1e-15
        if np.any(out):
            at = np.unravel_index(np.argmax(out), out.shape)
            raise AirCompError(
                f"||delta_{at[-1]}|| = {nd[at]} > eps = {eps_set[at]}"
            )
    v = design.v
    # row-wise delta @ v, unconjugated
    gain = inner(h_hat_set, v) + (delta_set[..., None, :] @ v[..., :, None])[..., 0, 0]
    values = np.abs(design.t_hat * gain - 1.0) ** 2
    total = noise_var * np.float_power(design.m, 2) + np.sum(values, axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def serialize_config(config):
    """Inverse of parse_config for the round-trip contract."""
    raw = {
        "system": {
            "K": config.system.K,
            "N": config.system.N,
            "P": config.system.P,
            "noise_var": config.system.noise_var,
            "s": config.system.s,
            "eval_mode": config.system.eval_mode,
            "error_sampling": config.system.error_sampling,
        },
        "master_seed": config.master_seed,
    }
    spec = config.sweep
    if spec is not None:
        raw["sweep"] = {"values": spec.values, "trials": spec.trials}
        raw["sweep"]["schemes"] = spec.schemes
        raw["sweep"]["s_values"] = spec.s_values
    if config.instance is not None:
        h_hat, eps = config.instance
        raw["instance"] = {
            "h_hat": [[[z.real, z.imag] for z in vec] for vec in h_hat],
            "eps": [float(e) for e in eps],
        }
    return raw


def closed_form_mse(design, channels, noise_var):
    """MSE of the computed sum for the channels actually applied:
    sum_k |m * inner(h_k, v_k) * t_k - 1|^2 + noise_var * m^2."""
    gains = design.m * inner(channels, design.v) * design.t
    return float(np.sum(np.abs(gains - 1.0) ** 2) + noise_var * design.m**2)


def empirical_mse(design, channels, noise_var, trials, rng):
    """Monte Carlo estimate of E|y - sum_k x_k|^2 with unit-variance real
    Gaussian sensor signals and CN(0, noise_var) receiver noise."""
    gains = design.m * inner(channels, design.v) * design.t
    x = rng.normal(0.0, 1.0, (trials, design.K))
    noise = sample_rayleigh_vector(trials, noise_var, rng) if noise_var > 0 else 0.0
    err = x @ (gains - 1.0) + design.m * noise
    return float(np.mean(np.abs(err) ** 2))


def ball_perturbation(n, radius, rng):
    """A length-n row perturbation of norm radius in a uniform direction."""
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return radius * d / np.linalg.norm(d)


def ref_term(t_hat, h, v, eps):
    """The worst-case term (|t_hat h^H v - 1| + |t_hat| eps sqrt(N))^2 of one
    sensor, or of each sensor row of (..., K, N) arrays."""
    rho = t_hat * inner(h, v) - 1.0
    term = (np.abs(rho) + np.abs(t_hat) * eps * np.sqrt(np.shape(h)[-1])) ** 2
    return float(term) if np.ndim(term) == 0 else term


def ref_iteration(config, h_hat, eps, v, t_hat):
    """One pass of the per-sensor block updates of the alternating loop:
    co-phase, then the exact scaling (MMSE where eps_k = 0 or t_hat_k = 0),
    reverted where it would raise the sensor's objective."""
    N = config.N
    c = config.noise_var / config.P
    v, t_hat = v.copy(), t_hat.copy()
    for k in range(config.K):
        h = h_hat[k]
        nz = h != 0
        v_new = np.ones(N, dtype=complex)
        v_new[nz] = h[nz] / np.abs(h[nz])
        a = float(np.sum(np.abs(h)))
        if eps[k] == 0 or t_hat[k] == 0:
            t_new = a / (a * a + c) if a > 0 else 0.0
        else:
            b = a - eps[k] * np.sqrt(N)
            t_new = 0.0 if b <= 0 else min(b / (b * b + c), 1.0 / a)
        before = ref_term(t_hat[k], h, v[k], eps[k]) + c * abs(t_hat[k]) ** 2
        after = ref_term(t_new, h, v_new, eps[k]) + c * abs(t_new) ** 2
        if after > before:
            continue
        v[k] = v_new
        t_hat[k] = t_new
    return v, t_hat


def ref_loop(config, h_hat, eps):
    """The alternating loop from co-phased phases and t_hat_k = sqrt(P/K),
    pass by pass until a pass changes nothing; returns the final (v, t_hat)
    and the objective after each pass."""
    K, N = config.K, config.N
    c = config.noise_var / config.P
    v = np.ones((K, N), dtype=complex)
    v[h_hat != 0] = h_hat[h_hat != 0] / np.abs(h_hat[h_hat != 0])
    t_hat = np.full(K, np.sqrt(config.P / K), dtype=complex)
    objectives = []
    for _ in range(200):
        v_new, t_new = ref_iteration(config, h_hat, eps, v, t_hat)
        objectives.append(
            sum(
                ref_term(t_new[k], h_hat[k], v_new[k], eps[k]) + c * abs(t_new[k]) ** 2
                for k in range(K)
            )
        )
        done = len(objectives) > 1 and np.array_equal(t_new, t_hat)
        v, t_hat = v_new, t_new
        if done:
            return v, t_hat, objectives
    raise AssertionError("the reference loop did not settle in 200 passes")


def ref_loop_design(config, h_hat, eps):
    """The Design the reference loop ends at, with the sum power at P, or
    m = 0 when it silences every sensor."""
    v, t_hat, _ = ref_loop(config, h_hat, eps)
    m = np.sqrt(np.sum(np.abs(t_hat) ** 2) / config.P)
    return RISDesign(m=m, t=t_hat / m if m > 0 else np.zeros_like(t_hat), v=v)


def expected_nmse(eval_mode, s, snr_db, P, scheme, error_sampling="surface"):
    """E[NMSE] of an SNR sweep cell at N = 1, by quadrature from the model
    alone; only t_exact and snr_to_noise_var come from the package. At
    N = 1, |h|^2 = |g|^2 |r|^2 with |g|^2 and |r|^2 ~ Exp(rate 2), and an
    error of radius r s x leaves the gain a = x |1 - r s e^(j theta)| and
    the design's radius s x, for x = |h| and theta uniform on [0, 2 pi). A
    surface error has r = 1; an interior one, uniform over the disk, r of
    density 2r on [0, 1]. The MSE splits per sensor, so K drops out. Worst
    mode scores (|tau a - 1| + tau s x)^2, realized mode
    |tau x e^(j arg(1 - r s e^(j theta))) - 1|^2, each plus
    (sigma^2/P) tau^2, with tau = t_exact(a, s x) (radius 0 for
    nonrobust). The density of ln|h|^2 is the convolution of two ln-Exp
    densities on a uniform grid; theta takes a midpoint grid of 256 points
    for surface errors, and r 8 Gauss-Legendre nodes (polynomial weight 2r
    folded in) with 64 angles for interior ones, within 1e-9 relative of
    96 nodes and 1024 angles."""
    u, du = np.linspace(-30.0, 10.0, 2000, retstep=True)
    density = 2.0 * np.exp(u - 2.0 * np.exp(u))  # of ln E, E ~ Exp(rate 2)
    weights = np.convolve(density, density) * du * du  # ln|h|^2 at 2 u[0] + i du
    x = np.exp(u[0] + du / 2 * np.arange(len(weights)))[:, None]
    if error_sampling == "surface":
        radii, mass, angles = [1.0], [1.0], 256
    else:
        nodes, node_weights = np.polynomial.legendre.leggauss(8)
        radii = (nodes + 1.0) / 2.0  # on [0, 1], where each weighs half
        mass, angles = node_weights * radii, 64  # half of 2r
    noise_var = snr_to_noise_var(snr_db, P)
    total = 0.0
    for r, m in zip(radii, mass):
        error = 1.0 - r * s * np.exp(2j * np.pi * (np.arange(angles) + 0.5) / angles)
        a = x * np.abs(error)
        tau = t_exact(a, 0.0 if scheme == "nonrobust" else s * x, noise_var, P)
        if eval_mode == "worst":
            terms = (np.abs(tau * a - 1.0) + tau * s * x) ** 2
        else:
            terms = np.abs(tau * x * np.exp(1j * np.angle(error)) - 1.0) ** 2
        total += m * float(weights @ (terms + noise_var / P * tau**2).mean(axis=-1))
    return total


def large_n_nmse(eval_mode, s):
    """The NMSE a sweep cell of either scheme tends to as N grows, from the
    model alone. Entries h = conj(g) r of CN(0, 1/2) segments have
    sigma_h^2 = E|h|^2 = 1/4, and an error of radius s ||h_k|| (on the
    sphere, or inside it with a radius factor that tends to 1) tends to
    entries w ~ CN(0, (s sigma_h)^2). So a_k/N -> A = E|h - w|, the design's
    radius eps_k sqrt(N)/N -> B = s sigma_h, and the true gain
    h_k^H v_k/N -> G = E[conj(h) (h - w)/|h - w|]. Both schemes tend to
    t_hat_k = 1/a_k while A > B, so worst mode tends to (B/A)^2 and
    realized mode to (G/A - 1)^2; the noise term falls as 1/N^2. Given
    R = |r|^2 ~ Exp(rate 2), h and h - w are jointly CN(0, .) with
    variances R/2 and R/2 + B^2, so E[h | h - w] = (R/2)/(R/2 + B^2) (h - w),
    and the expectations over R are incomplete gamma functions:
    A = (sqrt(pi)/4) (s + (sqrt(pi)/2) X) and G = A - (pi s^2/4) X, with
    X = e^(s^2) erfc(s)."""
    x = math.exp(s * s) * math.erfc(s)
    A = math.sqrt(math.pi) / 4 * (s + math.sqrt(math.pi) / 2 * x)
    B = s / 2
    if not A > B:
        raise ValueError(f"at s = {s} the robust design silences sensors in the limit")
    if eval_mode == "worst":
        return (B / A) ** 2
    return (math.pi * s * s / 4 * x / A) ** 2


def exact_design(h_hat, eps, N, noise_var, P, magnitude=False):
    """What aircomp solve writes for the (K, N) estimates h_hat and radii
    eps, in stdlib decimal at 50 digits, whose exponent range no double
    input leaves: the gains a_k = sum_i sqrt(re^2 + im^2), t_hat_k by the
    t_exact rule (0 where b = a_k - eps_k sqrt(N) <= 0, else
    min(b/(b^2 + sigma^2/P), 1/a_k)), m = sqrt(sum t_hat^2/P) and
    t_k = t_hat_k/m (all 0 when m = 0), the worst-case terms
    (|t_hat_k a_k - 1| + t_hat_k eps_k sqrt(N))^2, the multipliers
    lambda_k = t_hat_k^2 N + (sqrt(N)/eps_k) t_hat_k |t_hat_k a_k - 1| (None
    where eps_k = 0, which solve writes as null), the objective
    sigma^2 m^2 + sum_k terms_k and the sum power sum_k t_k^2. Returns a
    dict of Decimals and lists of Decimals under solve's keys; t is real.

    With magnitude, each |t_hat_k a_k - 1| reads t_hat_k a_k + 1 instead:
    the size that a double evaluation's rounding errors scale with where
    t_hat_k a_k is near 1 and the difference cancels."""
    with localcontext() as ctx:
        ctx.prec = 50
        rows = [[(Decimal(z.real), Decimal(z.imag)) for z in row] for row in h_hat]
        gains = [sum((re * re + im * im).sqrt() for re, im in row) for row in rows]
        root_n = Decimal(N).sqrt()
        radii = [Decimal(e) * root_n for e in eps]
        c = Decimal(noise_var) / Decimal(P)
        t_hat = []
        for a, radius in zip(gains, radii):
            b = a - radius
            t_hat.append(min(b / (b * b + c), 1 / a) if b > 0 else Decimal(0))
        m = (sum(t * t for t in t_hat) / Decimal(P)).sqrt()
        t = [tk / m if m > 0 else Decimal(0) for tk in t_hat]
        rho = [tk * a + 1 if magnitude else abs(tk * a - 1) for tk, a in zip(t_hat, gains)]
        terms = [(r + tk * radius) ** 2 for r, tk, radius in zip(rho, t_hat, radii)]
        lambdas = [
            tk * tk * N + root_n / Decimal(e) * tk * r if e != 0 else None
            for tk, r, e in zip(t_hat, rho, eps)
        ]
        return {
            "m": m,
            "t": t,
            "lambda": lambdas,
            "worst_case_terms": terms,
            "objective": Decimal(noise_var) * m * m + sum(terms),
            "sum_power": sum(tk * tk for tk in t),
        }
