"""Reference law sampler that repeats the key codes by their counts and shuffles them.

Test-only oracle for eprlab.protocol.run_protocol: the same schedule, law,
generator and multinomial draw, but the key is every key code repeated by
its multinomial count and then shuffled, where run_protocol draws the key
codes i.i.d. from their conditional law given the key length.  Both give
the same test tallies, statistic, error rates of the test sample and key
length for every seed; only the keys and how the key splits among its
codes differ.  It reads the law through qstate._physical, as run_protocol
does: the multinomial draws no uniform for a zero weight, so both must see
the same zeros.  Its means are conftest's per-setting ordered sums, the
package's one summation rule written in Python floats.  It calls
protocol.estimate_statistic through the module, so a test that patches it
sees the tallies of both samplers.  Inputs are trusted.
"""

from __future__ import annotations

import numpy as np

from conftest import ordered_correlator, ordered_dot
from eprlab import protocol
from eprlab.qstate import SpinSetting, _physical, correlator, joint_probabilities


def run_protocol(cfg: protocol.ProtocolConfig) -> protocol.ProtocolReport:
    plan = protocol._SCHEDULES[cfg.protocol]
    state = protocol.effective_state(cfg.source_state, cfg.eve)
    n_b = len(plan.bob)
    n_pairs = len(plan.alice) * n_b
    tested = [i * n_b + j for _, i, j, _ in plan.tests]
    keyed = [i * n_b + j for _, i, j in plan.keys]
    used = sorted(set(tested + keyed))

    r_a, r_b, t = state.bloch_a, state.bloch_b, state.correlations
    probs = _physical(joint_probabilities(
        [[ordered_dot(r_a, a)] for a in plan.alice], [ordered_dot(r_b, b) for b in plan.bob],
        [[ordered_correlator(t, a, b) for b in plan.bob] for a in plan.alice]).ravel())
    coin = [1.0 - cfg.test_fraction, cfg.test_fraction] if plan.split else [1.0]
    law = np.multiply.outer(coin, probs).ravel()
    codes = np.arange(law.size, dtype=np.uint8)
    in_key = np.isin(codes // 4, keyed)

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = rng.multinomial(cfg.rounds, law / law.sum())
    key_codes = np.repeat(codes[in_key], counts[in_key])
    rng.shuffle(key_codes)
    counts = counts.reshape(-1, n_pairs, 4)
    tests, key_rounds = counts[-1], counts[0]

    rounds_used = {label: int(counts[:, i * n_b + j].sum()) for label, i, j, _ in plan.tests}
    if plan.split:
        rounds_used["test"] = int(tests[tested].sum())
    rounds_used["key"] = int(key_rounds[keyed].sum())
    rounds_used["discarded"] = cfg.rounds - int(counts[:, used].sum())
    if rounds_used["key"] == 0:
        raise ValueError("no rounds landed on the key settings; increase rounds"
                         + (" or lower the test fraction" if plan.split else ""))
    statistic, stderr = protocol.estimate_statistic(
        {label: tests[i * n_b + j] for label, i, j, _ in plan.tests}, cfg.protocol
    )

    flip = np.zeros(n_pairs, dtype=bool)
    for _, i, j in plan.keys:
        setting_a, setting_b = SpinSetting.alice(plan.alice[i]), SpinSetting.bob(plan.bob[j])
        flip[i * n_b + j] = correlator(cfg.source_state, setting_a, setting_b) < 0.0
    bits = np.array([codes % 4 >= 2, (codes % 2 == 1) ^ flip[codes // 4 % n_pairs]])
    key_a, key_b = ((row.astype(np.uint8) + ord("0"))[key_codes].tobytes().decode() for row in bits)

    if plan.split:
        wrong = (bits[0] != bits[1]).reshape(counts.shape)[-1]
        n_test = {basis: int(tests[i * n_b + j].sum()) for basis, i, j in plan.keys}
        n_err = {basis: int(tests[i * n_b + j] @ wrong[i * n_b + j]) for basis, i, j in plan.keys}
        qber_by_basis = {basis: n_err[basis] / n_test[basis] for basis in n_test}
        error_rate = sum(n_err.values()) / sum(n_test.values())
    else:
        qber_by_basis = None
        error_rate = protocol.qber(key_a, key_b)

    return protocol.ProtocolReport(
        protocol=cfg.protocol,
        statistic=statistic,
        stderr=stderr,
        abort_sigma=cfg.abort_sigma,
        qber=error_rate,
        qber_by_basis=qber_by_basis,
        sifted_key_a=key_a,
        sifted_key_b=key_b,
        rounds_used=rounds_used,
    )
