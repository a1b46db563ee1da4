"""Dense oracles for the engine's sparse paths: the point evaluator
x(gamma) = d_gamma + <c*_gamma, x> for every gamma of Gamma_n in the
canonical (rank, id) order, zeros included; the stage-matrix columns by
forward substitution through every row; and the biorthogonality check
as the full |Gamma_n|^2 sweep of row-column pairings."""

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


def dense_columns(ids, rows):
    """{gamma: d_gamma} solving <d*_xi, d_gamma> = delta row by row over
    all of `ids`, each column's nonzeros in the order of `ids`."""
    columns = {}
    for gamma in ids:
        col = {}
        for xi in ids:
            val = Fraction(1) if xi == gamma else Fraction(0)
            for delta, coef in rows[xi].items():
                if delta != xi and delta in col:
                    val -= coef * col[delta]
            if val:
                col[xi] = val
        columns[gamma] = col
    return columns


def dense_defects(sm):
    """All (xi, gamma, <d*_xi, d_gamma>) off the identity, pairing every
    row with every column."""
    defects = []
    for xi in sm.ids:
        row = sm.rows[xi]
        for gamma in sm.ids:
            val = row.dot(sm.columns[gamma])
            if val != (1 if xi == gamma else 0):
                defects.append((xi, gamma, val))
    return defects
