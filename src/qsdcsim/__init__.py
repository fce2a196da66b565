"""Deterministic simulator for direct quantum communication over
rearranged single photons, its multiparty-controlled variant, and a
pluggable eavesdropping layer with detection and leak metrics."""

from .attacks import (
    AttackReport,
    BatchReport,
    CollusionAttack,
    FakeSequenceBypass,
    InterceptResend,
    PassiveNone,
    ReturnLegTap,
    build_attack,
)
from .errors import ConfigError, ProtocolError
from .fabric import (
    ClassicalChannel,
    NoiseKind,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from .harness import (
    AggregateStats,
    ExperimentConfig,
    load_config,
    run_report,
    run_selftest,
    sweep_csv,
)
from .multiparty import (
    AnnouncementSchedule,
    ControllerRecord,
    McSessionConfig,
    controller_pass,
    mc_check_round,
    release_and_reconstruct,
    run_mc_session,
)
from .protocol import (
    CheckSet,
    Permutation,
    SessionBatch,
    SessionConfig,
    SessionOutcome,
    encode,
    prepare_p_sequence,
    rearrange,
    reveal_order_and_decode,
    run_check,
    run_session,
    run_sessions,
    select_check_positions,
)
from .quantum import (
    Basis,
    FrameEffect,
    OpLabel,
    PhotonState,
    StateLabel,
    apply_op,
    apply_op_symbolic,
    compose_effects,
    measure,
    state_from_label,
)

__version__ = "0.1.0"
