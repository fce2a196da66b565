"""The control property of a controlled session, measured: the receiver's
per-bit decode accuracy with every controller's release, or with one
withheld."""
from qsdcsim.harness import derive_seed
from qsdcsim.multiparty import McSessionConfig, run_mc_session


def control_property_accuracy(
    m: int,
    total_bits: int,
    seed: int,
    withheld: int | None,
    n_photons: int = 536,
    check_count: int = 24,
) -> tuple[float, int]:
    """Measure the receiver's per-bit decode accuracy over at least
    ``total_bits`` message bits of honest controlled sessions, optionally
    withholding one controller's release (the control property)."""
    hits = 0
    bits = 0
    trial = 0
    while bits < total_bits:
        session = McSessionConfig(
            n_photons=n_photons,
            check_count=check_count,
            error_threshold=0.0,
            controllers=m,
            seed=derive_seed(seed, m, 0 if withheld is None else withheld + 1, trial),
        )
        outcome = run_mc_session(session, withheld_controller=withheld)
        if outcome.aborted or outcome.decoded_bits is None:
            raise RuntimeError("honest noiseless session unexpectedly aborted")
        session_hits, session_bits = outcome.decode_hits()
        hits += session_hits
        bits += session_bits
        trial += 1
    return hits / bits, bits
