"""The dense point evaluator, kept as the oracle for the engine's sparse
solve: x(gamma) = d_gamma + <c*_gamma, x> for every gamma of Gamma_n in
the canonical (rank, id) order, zeros included."""

from fractions import Fraction


def dense_values(engine, point, n):
    """{gid: x(gid)} over all of Gamma_n, in (rank, id) order."""
    values = {}
    for gid in engine.registry.gammas_up_to(n):
        val = point.d_coords.get(gid, Fraction(0))
        cs = engine.c_star(gid)
        if cs:
            val = val + cs.dot(values)
        values[gid] = val
    return values


def dense_sup_norm(engine, point, n):
    """(lower, upper, witness) of the stage-n norm interval, by a full
    sweep: the witness is the first maximum in (rank, id) order."""
    rng = engine.ran(point)
    if rng is None:
        return Fraction(0), Fraction(0), None
    lower, witness, local_max = Fraction(0), None, Fraction(0)
    for gid, v in dense_values(engine, point, n).items():
        v = abs(v)
        if v > lower:
            lower, witness = v, gid
        if engine.registry.rank_of(gid) <= rng[1] and v > local_max:
            local_max = v
    upper = max(engine.registry.schedule.M * local_max, lower)
    return lower, upper, witness
