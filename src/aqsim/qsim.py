"""Minimal pure-state qubit simulator, batched over Monte Carlo trials.

Statevectors are immutable; every operation returns a fresh value. Qubit 0 is
the leftmost tensor factor (most significant bit of the basis index).
Measurements remove the measured qubits from the register and return the
renormalized residual state, which is all the protocol layer ever needs.

Trial axis. A StateVector holds one state per trial: its amplitudes have shape
batch + (2^k,), with batch (T,) for a block of T trials and () for a single
state. A single state runs the same code as a block, and gets the bits the
same state gets in a row of a block of any length. Every operation acts on
each trial independently, broadcasts batch shapes (a single state, such as
the GHZ triple, pairs with every trial of a block), and returns values with
the same leading axes. Random draws follow suit: one uniform or Gaussian per
trial, drawn as one array with the trial axis first. A register (see
"Registers" below) adds a block axis last in batch, and the same operations
act on every block of every trial.

Checks. Each value is checked once, where it is made: StateVector(...) checks
states that enter (callers' arrays, new_basis_state, ghz_state, the Haar
sampler), operations on checked states build their results unchecked through
StateVector.owning, crypto.derive_signing_transform checks general-key
unitary stacks, crypto checks its per-qubit table once at import (a
per-qubit stack is a gather from it), and protocol solves and checks the
Pauli frame once per process, each entry on one block of probes.

One-qubit blocks. On (T, n, 2) registers the 2x2 products (apply_unitary) and
the per-row norms and inner products (_norm_sq, inner_product) are elementwise or
np.vecdot forms, bit for bit equal to np.matmul's and without its call per
matrix. A Pauli, and crypto's one-time pad on one-qubit blocks, is a swap
of the amplitude pair where it flips the qubit and a row of phases
(_flip_and_phase), with no index array.

Measurement. A branch's residual is a sum over basis rows: conj(c_r) times
the amplitudes with the targets fixed to row r, over the basis vector's
nonzero entries c_r, two for Bell and x (_project_out). The rows of a state
are views of it, so nothing is copied and no BLAS is called. A Bell pair of
factors (a, b), such as a message qubit and its GHZ triple, stands for
tensor(a, b) and is never joined: each row is a product of one amplitude of
a with half of b, tensor's own products, built for the two outcomes that
read it and freed before the next two (_factor_rows). One draw loop serves
both sources, and measure keeps only the drawn branch. A gate
on one qubit (apply_one_qubit) is the same 2x2 product as apply_unitary's,
elementwise, and Haar unitaries up to 16 x 16 are products of Householder
reflections built over the trial axis. What still reaches BLAS or LAPACK
does so once per row or matrix: np.vecdot, np.matmul for d > 2 and, for
d >= 32, the Haar QR.

Outcomes. Measurement outcomes are positions in the fixed order of an
`Ordered` enum (BellOutcome, XOutcome), and Pauli corrections positions in
PauliOp: a numpy int for a single state, an int array with the trial axis
first for a block. The enums name the rows of the tables those positions
index, and a member indexes the same rows as its position.

Convention notes:
- |+x>, |-x> = (|0> +/- |1>)/sqrt(2).
- Bell labels are pinned so that outcome Psi- obtained on (message qubit,
  Alice's GHZ share) leaves the Bob/arbitrator pair in alpha|00> - beta|11>.
  That forces Psi+- = (|00> +/- |11>)/sqrt(2) and Phi+- = (|01> +/- |10>)/sqrt(2).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Absolute tolerance for all amplitude-level equality checks. Well above
# double-precision accumulation error for the states of at most 6 qubits, and
# the 64 x 64 unitaries, that runs build.
ATOL = 1e-10

_SQRT2_INV = 1.0 / np.sqrt(2.0)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)  # shared by every caller and StateVector


class Ordered(Enum):
    """An enum whose members are positions 0, 1, ... in definition order, so
    that a member and an int array of positions index the same numpy tables."""

    def __index__(self) -> int:
        try:
            return self._position
        except AttributeError:  # first use of this enum: number its members
            for i, member in enumerate(type(self)):
                member._position = i
            return self._position


class PauliOp(Ordered):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
# A Pauli as "flip the qubit or not, then multiply the amplitude of output bit b
# by phase[b]", shaped to broadcast against a state viewed as (..., 2^t, 2, rest)
_PAULI_FLIP = np.array([False, True, True, False])[:, None, None, None]
_PAULI_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)[:, None, :, None]

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)


class BellOutcome(Ordered):
    """The four Bell-measurement outcomes; serialize to 2 classical bits (b0, b1),
    the outcome's position being 2*b0 + b1."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def bits(self) -> tuple[int, int]:
        return divmod(operator.index(self), 2)

    @property
    def vector(self) -> np.ndarray:
        return _BELL_BASIS[self]


_BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex) * _SQRT2_INV
_BELL_ORDER = tuple(BellOutcome)


class XOutcome(Ordered):
    """x-basis measurement outcomes; an outcome's position is its classical bit."""

    PLUS_X = "+x"
    MINUS_X = "-x"

    @property
    def vector(self) -> np.ndarray:
        return _X_BASIS[self]


_X_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X_ORDER = tuple(XOutcome)
_read_only(_PAULI_MATRICES, _PAULI_FLIP, _PAULI_PHASE, _BELL_BASIS, _X_BASIS)


def _norm_sq(amps: np.ndarray):
    """<a|a> per trial: one real dot product per row over its (re, im) pairs,
    which copies nothing."""
    pairs = np.ascontiguousarray(amps).view(np.float64)
    return np.vecdot(pairs, pairs)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure states over `qubit_count` qubits, one per trial:
    `amplitudes` has shape batch + (2^k,)."""

    amplitudes: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        amps = self.amplitudes
        if amps.dtype != np.complex128:
            amps = np.asarray(amps, dtype=np.complex128)
        size = amps.shape[-1] if amps.ndim else 0
        k = size.bit_length() - 1
        if size != 1 << k or k < 1:
            raise ValueError(f"amplitude array of length {size} is not 2^k, k>=1")
        norm_sq = _norm_sq(amps)
        off = abs(norm_sq - 1.0)
        if not (off <= 1e-8).all():  # written so that a NaN norm fails it too
            raise ValueError(f"state not normalized: |norm^2 - 1| = {np.max(off):.3e}")
        slack = off > 1e-14
        if slack.any():  # renormalize exactly the trials that need it
            amps = amps / np.where(slack, np.sqrt(norm_sq), 1.0)[..., None]
        elif amps.flags.writeable:
            amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_count", k)

    @classmethod
    def owning(cls, amps: np.ndarray) -> "StateVector":
        """A state over `amps`, made from checked states and held by no caller:
        frozen in place, neither copied nor checked."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(amplitudes=amps, qubit_count=amps.shape[-1].bit_length() - 1)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def batch(self) -> tuple[int, ...]:
        """The trial shape: (T,) for a block, () for a single state."""
        return self.amplitudes.shape[:-1]


def new_basis_state(k: int, index: int) -> StateVector:
    """Computational basis state |index> on k qubits."""
    if not 0 <= index < 2**k:
        raise ValueError(f"basis index {index} out of range for {k} qubits")
    amps = np.zeros(2**k, dtype=complex)
    amps[index] = 1.0
    amps.setflags(write=False)
    return StateVector(amps)


def ghz_state() -> StateVector:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2), qubits (Alice, Bob, arbitrator)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = _SQRT2_INV
    amps.setflags(write=False)
    return StateVector(amps)


def x_state(outcome) -> StateVector:
    """The x eigenstate of each trial's outcome."""
    return StateVector.owning(_X_BASIS[outcome])


def _check_target(state: StateVector, target: int) -> None:
    if not 0 <= target < state.qubit_count:
        raise ValueError(f"qubit index {target} out of range for {state.qubit_count} qubits")


# Always empty; kept for its two readers, benchmarks/tracer.py and cache_probe.py.
_UNITARY_CACHE: set[bytes] = set()

# A stack of matrices is derived and checked in chunks of at most this many
# bytes: 256 trials at a time for 3-qubit matrices, 4 for the 64 x 64
# unitaries of n = 6, whose 256-trial stack is 16 MiB. Deriving a keyed Haar
# chunk takes at most about 5 chunks of scratch (its hash, uniforms and
# normals, d(d+1)/2 per key for d <= 16 and d^2 above, then the Householder
# product's working copy or the QR), so a long block's derivation needs no
# more scratch than a 256-trial one.
_CHUNK_BYTES = 2**18


def _chunks(stack: np.ndarray):
    """Consecutive slices of a (len, d, d) stack, each within _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (stack.itemsize * stack[0].size))
    return (stack[start : start + step] for start in range(0, len(stack), step))


def _check_unitary(matrix: np.ndarray, atol: float) -> None:
    """Raise unless every matrix of the stack (..., d, d) is unitary."""
    d = matrix.shape[-1]
    for chunk in _chunks(matrix.reshape(-1, d, d)):
        deviation = np.matmul(np.swapaxes(chunk.conj(), -1, -2), chunk)
        deviation -= np.eye(d)
        # np.allclose(U^H U, I, atol) and its default rtol, without its temporaries
        if not (np.abs(deviation) <= atol + 1e-5 * np.eye(d)).all():
            raise ValueError("matrix is not unitary")


def apply_one_qubit(state: StateVector, gate: np.ndarray, target: int) -> StateVector:
    """Apply one 2x2 unitary to one qubit of the register, in every trial."""
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"gate shape {gate.shape} is not 2x2")
    _check_unitary(gate, ATOL)
    _check_target(state, target)
    k = state.qubit_count
    block = state.amplitudes.reshape(state.batch + (2**target, 2, 2 ** (k - target - 1)))
    # output row r is gate[r, 0] a_0 + gate[r, 1] a_1, elementwise, as apply_unitary's 2x2 product
    out = gate[:, 0, None] * block[..., 0:1, :] + gate[:, 1, None] * block[..., 1:2, :]
    return StateVector.owning(out.reshape(state.batch + (-1,)))


def _flip_and_phase(block: np.ndarray, flip: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """A Pauli-like map on the qubit axis of `block` (..., 2, rest): flip the
    qubit where `flip` holds, then multiply the amplitude of output bit b by
    phase[..., b, :]; a fresh array."""
    out = np.where(flip, block[..., ::-1, :], block)
    out *= phase
    return out


def apply_pauli(state: StateVector, pauli, target: int) -> StateVector:
    """Apply a Pauli to one qubit (matrix-free): one PauliOp for every trial,
    or an int array of PauliOp positions, one per trial."""
    _check_target(state, target)
    k = state.qubit_count
    block = state.amplitudes.reshape(state.batch + (2**target, 2, 2 ** (k - target - 1)))
    out = _flip_and_phase(block, _PAULI_FLIP[pauli], _PAULI_PHASE[pauli])
    return StateVector.owning(out.reshape(out.shape[:-3] + (-1,)))


def apply_unitary(state: StateVector, unitary: np.ndarray) -> StateVector:
    """Apply a full-register unitary: one (d, d) matrix, or one per trial. Callers pass
    unitaries checked where they were made: SigningTransform stacks and their krons.

    One-qubit blocks take the 2x2 product elementwise, which equals np.matmul's
    bit for bit without its call per matrix; wider blocks keep np.matmul.
    """
    unitary = np.asarray(unitary, dtype=complex)
    d = state.dim
    if unitary.shape[-2:] != (d, d):
        raise ValueError(f"unitary shape {unitary.shape} does not match dimension {d}")
    amps = state.amplitudes
    if d == 2:
        return StateVector.owning(unitary[..., 0] * amps[..., 0, None] + unitary[..., 1] * amps[..., 1, None])
    return StateVector.owning(np.matmul(unitary, amps[..., None])[..., 0])


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product, trial by trial; a's qubits come first."""
    # np.kron's products, without its generic n-d bookkeeping
    product = a.amplitudes[..., :, None] * b.amplitudes[..., None, :]
    return StateVector.owning(product.reshape(product.shape[:-2] + (-1,)))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators, or of two stacks of them, trial by trial."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


# ---------------------------------------------------------------------------
# Registers. A register of n qubits is one StateVector whose last batch axis is
# a block axis: amplitudes trials + (B, 2^k) with B k = n, so (T, n, 2) for a
# product register and (T, 1, 2^n) for an entangled one. Every operation above
# acts on each block of each trial at once; an index array for a register, such
# as one Pauli per qubit, carries the same trials + (B,) axes. Only this section
# joins a register's blocks into one.


def qubit_count(register: StateVector) -> int:
    """Qubits in a register: blocks times qubits per block."""
    return register.batch[-1] * register.qubit_count


def kron_blocks(stack: np.ndarray) -> np.ndarray:
    """The Kronecker product of the operators along a stack's block axis, in
    order, as one block: (..., B, r, c) -> (..., 1, r^B, c^B)."""
    return functools.reduce(kron, np.moveaxis(stack, -3, 0))[..., None, :, :]


def join(register: StateVector) -> StateVector:
    """The register as one block: the tensor product of its blocks, in order."""
    # each block's amplitudes as a one-column operator; kron is then tensor's product
    return StateVector.owning(kron_blocks(register.amplitudes[..., None])[..., 0])


def register_fidelity(a: StateVector, b: StateVector):
    """|<a|b>|^2 of two registers per trial: blockwise if their blocks are
    alike, else joined."""
    if a.dim != b.dim:
        a, b = join(a), join(b)
    return np.prod(fidelity(a, b), axis=-1)


def inner_product(a: StateVector, b: StateVector):
    """<a|b> per trial, conjugate-linear in the first argument."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("states live on different qubit counts")
    return np.vecdot(a.amplitudes, b.amplitudes)[()]


def fidelity(a: StateVector, b: StateVector):
    """|<a|b>|^2 per trial."""
    return np.abs(inner_product(a, b)) ** 2


def _basis_rows(state: StateVector, targets: tuple[int, ...]) -> list[np.ndarray]:
    """The amplitudes with `targets` fixed to each of their basis rows r in
    turn (the first target the most significant bit of r): basic-index views,
    batch + (2,) * (k - len(targets)), so nothing is copied. Raises
    ValueError unless the targets are distinct qubits of the state."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"measured qubits {targets} are not distinct")
    for target in targets:
        _check_target(state, target)
    b = len(state.batch)
    amps = state.amplitudes.reshape(state.batch + (2,) * state.qubit_count)
    fixed = np.moveaxis(amps, [b + q for q in targets], range(len(targets)))
    return [fixed[(*bits, ...)] for bits in np.ndindex((2,) * len(targets))]


def _project_out(batch: tuple[int, ...], basis_vector: np.ndarray, rows):
    """Contract the measured qubits against basis_vector's conjugate, in every
    trial of `batch`: the sum of conj(c_r) rows[r] over its nonzero entries
    c_r in order, rows[r] being the amplitudes with the targets fixed to basis
    row r; returns (residual amplitudes, probability)."""
    first, *rest = np.flatnonzero(basis_vector)
    coefficients = basis_vector.conj()
    residual = coefficients[first] * rows[first]
    for r in rest:
        residual += coefficients[r] * rows[r]
    residual = residual.reshape(batch + (-1,))
    return residual, _norm_sq(residual)[()]


def _factor_rows(a: StateVector, b: StateVector):
    """The basis rows of tensor(a, b) on qubits (0, 1), a one qubit, built
    from the factors: row 2i + j is a's amplitude i times b's half with its
    first qubit j, the products tensor takes. Returns the row source: a
    basis vector -> the rows it reads. The rows last built are kept while the
    next vector reads the same ones and freed before any others are built, so
    a Bell measurement holds two rows at a time (psi+- read rows 0 and 3,
    phi+- rows 1 and 2)."""
    if a.qubit_count != 1:
        raise ValueError(f"the first factor of a Bell pair is one qubit, got {a.qubit_count}")
    halves = b.amplitudes.reshape(b.batch + (2, -1))
    built = {}

    def rows(basis_vector):
        nonzero = np.flatnonzero(basis_vector).tolist()
        if list(built) != nonzero:
            built.clear()
            for r in nonzero:
                i, j = divmod(r, 2)
                built[r] = a.amplitudes[..., i, None] * halves[..., j, :]
        return built

    return rows


def _row_source(state, targets: tuple[int, ...]):
    """(batch, row source) of a measurement: a state's rows are its
    _basis_rows views, whatever the outcome; a factor pair (a, b) stands for
    tensor(a, b), measured on (0, 1) from _factor_rows."""
    if isinstance(state, StateVector):
        views = _basis_rows(state, targets)
        return state.batch, lambda basis_vector: views
    a, b = state
    if targets != (0, 1):
        raise ValueError(f"a factor pair is measured on qubits (0, 1), not {targets}")
    return np.broadcast_shapes(a.batch, b.batch), _factor_rows(a, b)


def _post_measurement(residual: np.ndarray, p):
    """The residual of a branch of probability p, renormalized in place (it is
    fresh and held by no caller); None if no qubit remains."""
    if residual.shape[-1] == 1:
        return None
    residual /= np.sqrt(p)[..., None]
    return StateVector.owning(residual)


def measure(state, targets: tuple[int, ...], outcomes, rng: np.random.Generator):
    """Born-rule draw of one of `outcomes` on `targets` in every trial; the
    targets leave the register. `state` is a StateVector, or a factor pair
    (a, b) measured on (0, 1) whose joint is never built (_row_source).

    `outcomes` is an ordered basis of the targets' space, each item carrying
    its basis `.vector`. One uniform u per trial is drawn, as one array, and
    each trial takes the first outcome whose cumulative probability exceeds
    its u; if u lands in the float slack past every bin, the last outcome of
    nonzero probability. The outcomes are projected in order, and the loop
    stops once every trial has its outcome, so for one state no outcome after
    the drawn one is projected. Only the drawn branch is kept: the first
    outcome's residual is the output, and each later outcome is copied into
    the trials it takes. Returns (the drawn outcomes' positions in
    `outcomes`; renormalized residual, or None if no qubit remains).
    """
    batch, rows = _row_source(state, targets)
    u = rng.random(batch)
    for position, outcome in enumerate(outcomes):
        branch, p_branch = _project_out(batch, outcome.vector, rows(outcome.vector))
        if position == 0:
            residual, p, acc = branch, p_branch, p_branch
            drawn = np.zeros(batch, dtype=np.intp)
        else:
            prev, acc = acc, acc + p_branch
            # a trial no earlier bin holds takes this bin if it has width: for
            # good if u lies inside it, else until a later bin of width, so a u
            # past every bin ends on the last bin of nonzero width
            take = (prev <= u) & (prev < acc)
            np.copyto(residual, branch, where=take[..., None])
            p = np.where(take, p_branch, p)
            np.putmask(drawn, take, position)
        del branch  # freed before the next outcome's projection
        if (u < acc).all():
            break
    return drawn[()], _post_measurement(residual, p)


def project(state: StateVector, targets: tuple[int, ...], outcome):
    """The branch of one outcome, without sampling: (probability, residual or None).

    The residual is what `measure` returns on drawing `outcome`; it is None
    also when the branch's probability is below ATOL (in any trial). Oracles
    enumerate branches with it.
    """
    residual, p = _project_out(state.batch, outcome.vector, _basis_rows(state, targets))
    return p, None if np.any(p < ATOL) else _post_measurement(residual, p)


def measure_x(state: StateVector, target: int, rng: np.random.Generator):
    """x-basis measurement of `target`: measure() over (+x, -x)."""
    return measure(state, (target,), _X_ORDER, rng)


def bell_measure(state, q1: int, q2: int, rng: np.random.Generator):
    """Bell measurement of the ordered pair (q1, q2): measure() over psi+, psi-,
    phi+, phi-, of a StateVector or of a factor pair (a, b) on (0, 1)."""
    return measure(state, (q1, q2), _BELL_ORDER, rng)


def haar_random_state(k: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> StateVector:
    """Haar-distributed pure states on k qubits, one per trial of `batch`
    (normalized complex Gaussian vectors)."""
    if k < 1:
        raise ValueError("need at least one qubit")
    shape = batch + (2**k,)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps = z / np.sqrt(_norm_sq(z))[..., None]
    amps.setflags(write=False)
    return StateVector(amps)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the stream seeded by key s is
# mix(s + j GAMMA) for j = 1, 2, ..., all in wrapping uint64 arithmetic.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)), (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_SPLITMIX_LAST = np.uint64(31)


def splitmix64(keys: np.ndarray, count: int) -> np.ndarray:
    """The first `count` outputs of the SplitMix64 stream seeded by each key:
    (T,) uint64 keys -> (T, count) uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA
    z = np.add(np.asarray(keys, dtype=np.uint64)[:, None], z)
    shifted = np.empty_like(z)
    for shift, multiplier in _SPLITMIX_MIX:
        z ^= np.right_shift(z, shift, out=shifted)
        z *= multiplier
    z ^= np.right_shift(z, _SPLITMIX_LAST, out=shifted)
    return z


_ONE_BITS = np.float64(1.0).view(np.uint64)
_ONE_MINUS_HALF_ULP = 1.0 - 2.0**-53


def _keyed_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """`count` complex normals per key, E|z|^2 = 1, as a (T, count) array:
    normal e takes outputs 2e and 2e+1 of the key's SplitMix64 stream as
    uniforms u, v in (0, 1), and Box-Muller makes it sqrt(-ln u) e^(2 pi i v)."""
    bits = splitmix64(keys, 2 * count)
    bits >>= np.uint64(12)  # 52 bits b, so that (b + 1/2) 2^-52 is exact and inside (0, 1)
    # b as the mantissa of 1 + b 2^-52; subtracting 1 - 2^-53 leaves (b + 1/2) 2^-52 exactly
    bits |= _ONE_BITS
    uniform = bits.view(np.float64)
    uniform -= _ONE_MINUS_HALF_ULP
    uniform = uniform.reshape(len(keys), count, 2)
    radius = np.log(uniform[..., 0])
    radius *= -1.0
    np.sqrt(radius, out=radius)
    angle = uniform[..., 1]
    angle *= 2 * np.pi
    z = np.empty((len(keys), count), dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    z *= radius
    return z


def _ginibre_q(keys: np.ndarray, out: np.ndarray) -> None:
    """Haar unitaries as the Q of the QR of keyed Ginibre matrices (entry e,
    row-major, the key's normal e), each column's phase fixed by R's
    diagonal (Mezzadri 2007), written to `out`: one LAPACK QR per matrix."""
    q, r = np.linalg.qr(_keyed_normals(keys, out[0].size).reshape(out.shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    np.multiply(q, (d / np.abs(d))[..., None, :], out=out)


def _householder_q(keys: np.ndarray, out: np.ndarray) -> None:
    """Haar unitaries as Stewart's products of Householder reflections (SIAM
    J. Numer. Anal. 17:403, 1980) of d(d+1)/2 keyed normals each, to `out`.

    The normals fill a lower triangle row by row; column k holds x_k, d - k
    normals. From the 1 x 1 phase x_{d-1}/|x_{d-1}|, M <- H_k (l_k (+) M) for
    k = d-2, ..., 0: H_k reflects x_k onto -e^(i arg x_k0) |x_k| e_1, and
    l_k = -x_k0/|x_k0| makes R's diagonal positive (Mezzadri 2007), so M is
    the phase-fixed Q of a Ginibre matrix whose reduced columns are the x_k,
    and Haar. x_k0 is never 0, as Box-Muller's radius is positive. Column 0
    of H_k (l_k (+) M) is x_k/|x_k|; with a = x_k[1:]/|x_k| and w = a^H M,
    row 0 is l_k w and the rest M - a (s_k w), s_k = |x_k|/(|x_k| + |x_k0|).
    Every operation is elementwise over the trial axis, last, and each sum
    runs in a fixed order, so a trial's bits do not depend on the stack.
    """
    d = out.shape[-1]
    # numpy drops a trial axis of length 1, and its complex products then
    # take another kernel, which rounds differently: a lone key is derived
    # beside a copy of itself
    keys = np.resize(keys, max(2, len(keys)))
    x = np.ascontiguousarray(_keyed_normals(keys, d * (d + 1) // 2).T)
    rows = [slice(i * (i + 1) // 2, (i + 1) * (i + 2) // 2) for i in range(d)]
    heads = [i * (i + 3) // 2 for i in range(d)]
    # every column's |x_k| (summed down its rows, in order), l_k and s_k at once
    square = x.real**2 + x.imag**2
    norm = np.zeros((d, len(keys)))
    for i, row in enumerate(rows):
        norm[: i + 1] += square[row]
    np.sqrt(norm, out=norm)
    head = np.sqrt(square[heads])
    phase = x[heads] * (-1.0 / head)
    shrink = norm / (norm + head)
    # entry (i, j) of the product at m[i, j]: the lower triangle starts as the
    # columns x_k/|x_k|, and step k writes row k and updates the block below it
    m = np.empty((d, d, len(keys)), dtype=complex)
    inverse_norm = np.divide(1.0, norm, out=norm)
    for i, row in enumerate(rows):
        np.multiply(x[row], inverse_norm[: i + 1], out=m[i, : i + 1])
    w, scratch = np.empty((2, d - 1, len(keys)), dtype=complex)
    for k in range(d - 2, -1, -1):
        a, block = m[k + 1 :, k], m[k + 1 :, k + 1 :]
        a_conj, wk, sk = a.conj(), w[: len(a)], scratch[: len(a)]
        np.multiply(a_conj[0], block[0], out=wk)
        for i in range(1, len(a)):
            wk += np.multiply(a_conj[i], block[i], out=sk)
        np.multiply(phase[k], wk, out=m[k, k + 1 :])
        wk *= shrink[k]
        for i in range(len(a)):
            block[i] -= np.multiply(a[i], wk, out=sk)
    np.copyto(out, m[..., : len(out)].transpose(2, 0, 1))


# Largest dimension built by _householder_q; larger ones take _ginibre_q.
# Medians per 256 KiB chunk, one BLAS thread (BENCH_householder.json
# "derivation"), Householder against QR: d = 16 (64 keys) 1.7 against 2.2 ms,
# d = 32 (16 keys) 3.4 against 2.1, d = 64 (4 keys) 10.4 against 2.7. Its
# O(d^2) numpy calls act on ever fewer keys as d grows, so the QR is faster
# from d = 32 on.
_HOUSEHOLDER_MAX_DIM = 16


def haar_random_unitary(dim: int, keys: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries: for dim <= 16 Stewart's products of
    Householder reflections of d(d+1)/2 normals each (_householder_q), above
    the phase-fixed QR of d^2-normal Ginibre matrices (_ginibre_q). The two
    samplers give different unitaries from one key; both are Haar.

    A (T,) uint64 array of keys derives a (T, dim, dim) stack: row t is a
    function of keys[t] alone (the SplitMix64 stream it seeds, see
    _keyed_normals). The stack is derived chunk by chunk (_CHUNK_BYTES).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    derive = _householder_q if dim <= _HOUSEHOLDER_MAX_DIM else _ginibre_q
    u = np.empty((len(keys), dim, dim), dtype=complex)
    done = 0
    for chunk in _chunks(u):
        derive(keys[done : done + len(chunk)], out=chunk)
        done += len(chunk)
    return u


def product_factors(state: StateVector) -> tuple[StateVector, ...]:
    """Split one product state (no trial axis) into its single-qubit factors.

    Raises ValueError if any bipartition (first qubit vs rest) has Schmidt rank
    above 1 beyond tolerance. Factor phases are fixed arbitrarily; only
    fidelity-level comparisons should rely on the result.
    """
    factors = []
    current = state
    while current.qubit_count > 1:
        mat = current.amplitudes.reshape(2, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if s[1] > 1e-8:
            raise ValueError(f"state is entangled (second Schmidt value {s[1]:.3e})")
        factors.append(StateVector(u[:, 0]))
        current = StateVector(vh[0, :])
    factors.append(current)
    return tuple(factors)
