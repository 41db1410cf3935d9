"""Three-party arbitrated-signature protocol over an in-process channel.

Parties: Alice (signer), Bob (recipient), and the trusted arbitrator. One run
covers the three phases:

  initial      - shared keys K_a, K_b; one fresh GHZ triple per message qubit,
                 qubit order (Alice, Bob, arbitrator).
  signing      - Alice Bell-measures (message copy, her GHZ share) -> M_a,
                 builds the keyed signature state, seals both under K_a.
  verification - Bob x-measures his share -> M_b and seals it, the signature
                 and the message under K_b as y_b; the arbitrator runs the
                 state comparison (gamma), produces M_t and seals y_tb under
                 K_b, and Bob issues the verdict.

Every message on the wire is a bundle (see crypto): a dict of named fields,
each sealed by the key slice of the same name, so no phase slices a key.

Every step the underlying scheme leaves ambiguous is an explicit
ProtocolVariant field; there is no default variant.

Every run is a block of trials (the trial axis of qsim), one trial being a
block of one: keys, states, outcomes and verdicts carry one entry per trial.
The variant is fixed for the block, so its choices are plain `if`s. Every
register (message, GHZ shares, signature, particles) is one StateVector with
a block axis (see qsim "Registers"), so each per-qubit step is one call over
all qubits, and per-qubit outcomes are int arrays of positions with the qubit
axis last.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import comparison, crypto, qsim
from .crypto import KeyMaterial, SigningModel, SigningTransform
from .qsim import BellOutcome, PauliOp, StateVector, XOutcome


class RPrimeSource(Enum):
    """Where the arbitrator's second comparison state comes from."""

    FROM_MESSAGE_P = "message"  # transform applied to the message Bob forwarded
    FROM_GHZ_PARTICLE = "ghz"  # transform applied to his corrected GHZ share


class MtMode(Enum):
    MEASURE_X = "measure-x"
    FORWARD_PARTICLE = "forward-particle"


class MessageKnowledge(Enum):
    KNOWN_TO_ALL = "all"  # Bob can mint fresh copies of the true message
    ALICE_ONLY = "alice-only"


class ComparisonMode(Enum):
    PER_QUBIT = "per-qubit"
    WHOLE_REGISTER = "whole-register"


@dataclass(frozen=True)
class ProtocolVariant:
    r_prime_source: RPrimeSource
    m_t_mode: MtMode
    message_knowledge: MessageKnowledge
    key_model: SigningModel
    comparison_mode: ComparisonMode


# Largest n per path. Per-qubit keys and comparison keep every register as n
# blocks of at most 4 qubits (a message qubit and its GHZ triple), each step one
# call over all of them, so memory is linear in n. Whole-register paths act on
# 2^n amplitudes; at n = 6 the SWAP test's joint state has 12 qubits, the most
# qsim.ATOL allows.
MAX_N_PER_QUBIT = 64
MAX_N_WHOLE_REGISTER = 6


@dataclass(frozen=True)
class RunConfig:
    n: int
    variant: ProtocolVariant
    # When True the comparison acts on copies and leaves the compared states
    # undisturbed (the idealization under which the reference failure rates
    # hold). When False the post-measurement states flow onward.
    idealized_comparison: bool = True

    def __post_init__(self):
        """Reject a run the variant leaves undefined: one ValueError whose
        args are every conflict, each naming the CLI flags behind it."""
        if self.n < 1:
            raise ValueError("message needs at least one qubit")
        v, n = self.variant, self.n
        per_qubit_cmp = v.comparison_mode is ComparisonMode.PER_QUBIT
        general = v.key_model is SigningModel.GENERAL_UNITARY
        if per_qubit_cmp and not general:
            limit, path = MAX_N_PER_QUBIT, "--key-model per-qubit with --comparison per-qubit"
        else:
            limit, path = MAX_N_WHOLE_REGISTER, "--comparison whole-register or --key-model general"
        rules = [
            (n > limit, f"--n {n} exceeds {limit}, the largest n for {path}"),
            (n > 1 and per_qubit_cmp and general,
             f"--key-model general entangles the signature at --n {n}, so --comparison per-qubit cannot split it"),
            (self.disturbs_ghz and not per_qubit_cmp,
             "--idealized-comparison false with --comparison whole-register and --r-prime ghz leaves the GHZ particles entangled with the discarded register"),
            (self.disturbs_ghz and v.m_t_mode is MtMode.FORWARD_PARTICLE,
             "--idealized-comparison false with --r-prime ghz disturbs the GHZ particles, which --mt forward-particle cannot forward"),
        ]
        conflicts = [message for broken, message in rules if broken]
        if conflicts:
            raise ValueError(*conflicts)

    @property
    def disturbs_ghz(self) -> bool:
        """Whether the comparison's post-measurement state flows back into the
        GHZ particles (R' built from them, comparison not idealized)."""
        return not self.idealized_comparison and self.variant.r_prime_source is RPrimeSource.FROM_GHZ_PARTICLE


def haar_product_message(n: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> StateVector:
    """Independent Haar single-qubit factors, the product form the scheme
    signs: a register of n one-qubit blocks."""
    return qsim.haar_random_state(1, rng, batch + (n,))


# ---------------------------------------------------------------------------
# Pauli frame


def corrected_share_fidelity(probes: StateVector, m_a: BellOutcome, m_b: XOutcome, pauli: PauliOp) -> np.ndarray:
    """Message qubits through the GHZ correlation, on fixed outcomes.

    Each probe (x) GHZ is projected on Bell outcome m_a of (probe, Alice's
    share), then on x outcome m_b of Bob's share; returns the fidelity of each
    probe's arbitrator share, corrected by `pauli`, with the probe (0.0 for
    every probe if either branch has probability below qsim.ATOL in any).
    """
    _, pair = qsim.project(qsim.tensor(probes, qsim.ghz_state()), (0, 1), m_a)
    share = None if pair is None else qsim.project(pair, (0,), m_b)[1]
    if share is None:
        return np.zeros(probes.batch)
    return qsim.fidelity(qsim.apply_pauli(share, pauli, 0), probes)


# The random probe messages every frame entry is solved against.
_PROBE_COUNT = 3
_PROBE_SEED = 2024


def build_pauli_frame() -> np.ndarray:
    """The arbitrator's Pauli correction for each (Bell outcome, x outcome):
    a read-only (len(BellOutcome), len(XOutcome)) array of PauliOp positions.

    Built by brute force: each entry is the first Pauli that corrects every
    random probe message, all probes solved as one block, so a convention
    mismatch anywhere upstream fails loudly rather than silently corrupting
    corrections.
    """
    probes = qsim.haar_random_state(1, np.random.default_rng(_PROBE_SEED), (_PROBE_COUNT,))
    frame = np.empty((len(BellOutcome), len(XOutcome)), dtype=np.intp)
    for m_a in BellOutcome:
        for m_b in XOutcome:
            for pauli in PauliOp:
                if (corrected_share_fidelity(probes, m_a, m_b, pauli) >= 1.0 - qsim.ATOL).all():
                    frame[m_a, m_b] = operator.index(pauli)
                    break
            else:
                raise RuntimeError(f"no single Pauli corrects outcome pair ({m_a}, {m_b})")
    if frame[BellOutcome.PSI_MINUS, XOutcome.PLUS_X] != operator.index(PauliOp.Z):
        raise RuntimeError("Pauli frame convention broken: (psi-, +x) must map to Z")
    frame.setflags(write=False)
    return frame


@functools.cache
def pauli_frame() -> np.ndarray:
    """build_pauli_frame(), built on the first call in a process; index it
    with (Bell, x) positions, such as pauli_frame()[m_a, m_b]."""
    return build_pauli_frame()


# ---------------------------------------------------------------------------
# Transcript


@dataclass
class Transcript:
    """Full record of a block of protocol runs, one entry per trial in every
    field. Outcomes are int arrays of positions, qubit axis last."""

    seed: object  # the int seed or the Generator the block drew from
    n: int
    variant: ProtocolVariant
    m_a: np.ndarray | None = None  # BellOutcome positions
    m_b: np.ndarray | None = None  # XOutcome positions
    m_t: np.ndarray | None = None  # XOutcome positions
    gamma: np.ndarray | None = None
    y_b: dict | None = None  # Bob -> arbitrator bundle, sealed under K_b
    y_tb: dict | None = None  # arbitrator -> Bob bundle, sealed under K_b
    accepted: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Phases


def initialize(n: int, seed, variant: ProtocolVariant, size: int):
    """Initial phase: fresh keys for each of `size` trials and one GHZ triple
    per message qubit.

    `seed` is an int or a Generator, as numpy's default_rng takes it. The GHZ
    triples are a register of n three-qubit blocks that every trial of the
    block shares.
    """
    if n < 1:
        raise ValueError("message needs at least one qubit")
    rng = np.random.default_rng(seed)
    k_a = KeyMaterial.random(crypto.ka_bits_required(n, variant.key_model), rng, (size,))
    k_b = KeyMaterial.random(crypto.kb_bits_required(n), rng, (size,))
    ghz = qsim.ghz_state().amplitudes
    return k_a, k_b, StateVector.owning(np.broadcast_to(ghz, (n,) + ghz.shape))


def alice_sign(
    message: StateVector,
    k_a: KeyMaterial,
    ghz_triples: StateVector,
    variant: ProtocolVariant,
    rng: np.random.Generator,
):
    """Signing phase.

    Per qubit: Bell-measure (fresh message copy, Alice's GHZ share), leaving
    Bob and the arbitrator their correlated pair; one bell_measure call covers
    every qubit. The signature state is the keyed transform of another fresh
    copy. Returns (signature bundle sealed under K_a, message to transmit,
    M_a, shared Bob/arbitrator pairs).
    """
    if message.qubit_count != 1:
        raise ValueError(f"signing needs a product message, got {message.qubit_count}-qubit blocks")
    n = message.batch[-1]
    if n != ghz_triples.batch[-1]:
        raise ValueError("message size does not match GHZ share count")
    # shared pairs: qubits (Bob, arbitrator) of each triple
    m_a, shared_pairs = qsim.bell_measure(qsim.tensor(message, ghz_triples), 0, 1, rng)
    transform = crypto.derive_signing_transform(k_a, n, variant.key_model)
    r = transform.apply(message)
    sig = crypto.make_signature(m_a, r, k_a, variant.key_model)
    return sig, message, m_a, shared_pairs


def bob_receive_and_forward(
    p_received: StateVector,
    sig: dict,
    shared_pairs: StateVector,
    k_b: KeyMaterial,
    rng: np.random.Generator,
):
    """Bob's half of verification: measure his shares in x, bundle under K_b.

    Returns (y_b, M_b, arbitrator particles).
    """
    n = qsim.qubit_count(p_received)
    if shared_pairs.batch[-1] != n:
        raise ValueError("GHZ share count does not match message size")
    m_b, particles = qsim.measure_x(shared_pairs, 0, rng)
    fields = {"mb_bits": m_b, **sig, "msg_state": p_received}
    return crypto.seal(fields, k_b, crypto.kb_layout(n)["y_b"]), m_b, particles


def _signature_reference(
    p_received: StateVector,
    particles: StateVector,
    m_a,
    m_b,
    transform: SigningTransform,
    variant: ProtocolVariant,
) -> StateVector:
    """Build the arbitrator's comparison candidate R' per the variant."""
    if variant.r_prime_source is RPrimeSource.FROM_MESSAGE_P:
        source = p_received
    else:
        source = qsim.apply_pauli(particles, pauli_frame()[m_a, m_b], 0)
    return transform.apply(source)


def arbitrator_verify(
    y_b: dict,
    particles,
    k_a: KeyMaterial,
    k_b: KeyMaterial,
    config: RunConfig,
    rng: np.random.Generator,
):
    """Arbitrator's forgery test: gamma, M_t, and the y_tb bundle.

    `particles` are the arbitrator's GHZ shares after Bob's x-measurements.
    Returns (gamma, m_t or None, y_tb).
    """
    variant = config.variant
    n = qsim.qubit_count(y_b["sig_state"])
    layout = crypto.kb_layout(n)
    # every field of y_b; the signature fields are still sealed under K_a
    opened = crypto.unseal(y_b, k_b, layout["y_b"], y_b.keys())
    m_b = opened["mb_bits"]
    p_received = opened["msg_state"]
    m_a, r = crypto.open_signature(opened, k_a, variant.key_model)
    transform = crypto.derive_signing_transform(k_a, n, variant.key_model)
    r_prime = _signature_reference(p_received, particles, m_a, m_b, transform, variant)

    post_particles = particles
    if variant.comparison_mode is ComparisonMode.PER_QUBIT:
        result = comparison.swap_test(r, r_prime, rng)  # one test per qubit pair
        if config.disturbs_ghz:
            post_particles = _recover_particles(result.post_state, transform, m_a, m_b)
    else:
        result = comparison.swap_test(qsim.join(r), qsim.join(r_prime), rng)
    different = result.different.any(-1)

    m_t = out_particles = None
    if variant.m_t_mode is MtMode.MEASURE_X:
        # the particle is the last qubit, also inside a post-comparison joint
        m_t, _ = qsim.measure_x(post_particles, post_particles.qubit_count - 1, rng)
    else:
        out_particles = particles

    gamma = (~different).astype(np.uint8)
    fields = {
        "ma_bits": crypto.bell_outcomes_to_bits(m_a),
        "mb_bits": opened["mb_bits"],
        "mt_bits": m_t,
        "gamma_bit": gamma[..., None],
        "sig_bell_bits": opened["sig_bell_bits"],
        "sig_state": opened["sig_state"],
        "particles": out_particles,
    }
    return gamma, m_t, crypto.seal(fields, k_b, layout["y_tb"])


def _recover_particles(disturbed_joints: StateVector, transform, m_a, m_b) -> StateVector:
    """After a disturbing per-qubit comparison, undo the transform and the
    Pauli correction on the particle half of each post-measurement pair.

    The particle stays entangled with the discarded comparison register, so
    each block of the result is the 2-qubit joint state with the particle
    last. Each trial undoes its own transform.
    """
    undone = qsim.apply_unitary(disturbed_joints, qsim.kron(np.eye(2), transform.inverse().unitaries))
    return qsim.apply_pauli(undone, pauli_frame()[m_a, m_b], 1)


def bob_final_verify(
    y_tb: dict,
    k_b: KeyMaterial,
    reference: StateVector | None,
    config: RunConfig,
    rng: np.random.Generator,
):
    """Bob's final test.

    Returns (accepted per trial, candidate register). A trial with gamma = 0
    is rejected; its candidate is computed like any other but means nothing.
    In MeasureX mode no faithful reconstruction of the message from
    (M_a, M_b, M_t) exists; the candidate records the best x-basis guess so
    its failure can be quantified, and the verdict reduces to the gamma gate.
    In ForwardParticle mode Bob corrects the forwarded particles and
    SWAP-tests them against the reference.
    """
    variant = config.variant
    measured_mt = variant.m_t_mode is MtMode.MEASURE_X
    # only the fields Bob reads are opened
    names = ("ma_bits", "mb_bits", "gamma_bit", "mt_bits" if measured_mt else "particles")
    opened = crypto.unseal(y_tb, k_b, crypto.kb_layout(qsim.qubit_count(y_tb["sig_state"]))["y_tb"], names)
    frame = pauli_frame()
    m_a = crypto.bits_to_bell_outcomes(opened["ma_bits"])
    m_b = opened["mb_bits"]
    passed = opened["gamma_bit"][..., 0].astype(bool)

    if measured_mt:
        candidate = qsim.apply_pauli(qsim.x_state(opened["mt_bits"]), frame[m_a, m_b], 0)
        # M_t only tells Bob the particle was not orthogonal to one x state;
        # there is nothing more to test against, so the gamma gate decides.
        return passed, candidate

    p_prime = qsim.apply_pauli(opened["particles"], frame[m_a, m_b], 0)
    if reference is None:
        raise ValueError("final comparison needs a reference message")
    if variant.comparison_mode is ComparisonMode.PER_QUBIT:
        same = ~comparison.compare_product(p_prime, reference, rng)
    else:
        same = ~comparison.swap_test(qsim.join(p_prime), qsim.join(reference), rng).different.any(-1)
    return passed & same, p_prime


# ---------------------------------------------------------------------------
# Driver


def run_protocol(
    config: RunConfig,
    seed,
    size: int,
    message: StateVector | None = None,
    channel_tap=None,
) -> Transcript:
    """Execute a block of `size` full runs; deterministic given (config, seed,
    size, message).

    `seed` is an int or a Generator; the whole block draws from that one
    generator, in phase order. `message`, when given, is each trial's product
    register, batch (size, n). `channel_tap`, when given, intercepts the
    Alice -> Bob transmission: callable (message, sig, rng) -> (message, sig).
    """
    variant = config.variant
    if message is not None and message.batch != (size, config.n):
        raise ValueError(f"message batch {message.batch} is not (size, n) = {(size, config.n)}")
    rng = np.random.default_rng(seed)
    k_a, k_b, ghz_triples = initialize(config.n, rng, variant, size)
    transcript = Transcript(seed=seed, n=config.n, variant=variant)
    if message is None:
        message = haar_product_message(config.n, rng, (size,))

    sig, p_out, m_a, shared_pairs = alice_sign(message, k_a, ghz_triples, variant, rng)
    transcript.m_a = m_a
    if channel_tap is not None:
        p_out, sig = channel_tap(p_out, sig, rng)

    y_b, m_b, particles = bob_receive_and_forward(p_out, sig, shared_pairs, k_b, rng)
    transcript.m_b = m_b

    gamma, m_t, y_tb = arbitrator_verify(y_b, particles, k_a, k_b, config, rng)
    transcript.gamma = gamma
    transcript.m_t = m_t
    transcript.y_b = y_b
    transcript.y_tb = y_tb

    if variant.message_knowledge is MessageKnowledge.KNOWN_TO_ALL:
        reference = message  # Bob mints fresh copies from the known description
    else:
        reference = p_out  # all Bob ever held is what arrived on the channel
    transcript.accepted, candidate = bob_final_verify(y_tb, k_b, reference, config, rng)

    # a rejected trial's candidate means nothing: its fidelities read NaN
    per_qubit = np.where(gamma[..., None], qsim.fidelity(candidate, message), np.nan)
    transcript.extras["candidate_fidelity"] = per_qubit.prod(-1)
    transcript.extras["candidate_fidelity_per_qubit"] = per_qubit
    transcript.extras["message_fidelity"] = qsim.register_fidelity(p_out, message)
    return transcript
