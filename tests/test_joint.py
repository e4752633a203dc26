from dataclasses import fields, replace

import numpy as np
import pytest

from jcas import joint
from jcas.channel import PacketChannel
from jcas.joint import JointConfig, JointRunner, RunTrace
from jcas.mpa import mpa_decode
from jcas.scene import RoomSpec, random_scene
from jcas.scma import build_codebook
from jcas.sensing import sense


def _cfg(**kw):
    base = dict(
        n_packets=8, n_slots=64, n_f=6, n_b=2, k_s=2,
        ebn0_db=10.0, seed=21,
    )
    base.update(kw)
    return JointConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        JointConfig(n_packets=0)
    with pytest.raises(ValueError):
        JointConfig(n_b=50, n_packets=10)
    with pytest.raises(ValueError):
        JointConfig(decoder="bogus")
    with pytest.raises(ValueError):
        JointConfig(k_s=0)
    with pytest.raises(ValueError):
        JointConfig(n_f=0)


@pytest.mark.parametrize(
    "name", ["n_packets", "n_slots", "n_pilot", "n_f", "n_b", "k_s", "k_it"]
)
def test_config_rejects_non_integer_counts(name):
    """A count that is not an integer is rejected when the config is built,
    not deep inside a run (a float n_slots used to die in random_frame)."""
    for bad in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match=name):
            replace(JointConfig(), **{name: bad})
    assert getattr(replace(JointConfig(), **{name: np.int64(1)}), name) == 1


def test_config_rejects_momentum_outside_unit_interval():
    for mu in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="momentum"):
            JointConfig(mu=mu)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"ebn0_db": float("nan")}, "ebn0_db must be a number or"),
        ({"ebn0_db": -float("inf")}, "ebn0_db must be a number or"),
        ({"eps_k": float("nan")}, "eps_k must be >= 0"),
        ({"eps_k": -1.0}, "eps_k must be >= 0"),
    ],
    ids=["ebn0_db-nan", "ebn0_db-minus-inf", "eps_k-nan", "eps_k-negative"],
)
def test_config_rejects_nan_snr_and_bad_gate(kw, match):
    with pytest.raises(ValueError, match=match):
        JointConfig(**kw)


def test_config_accepts_noiseless_snr_and_zero_gate():
    assert JointConfig(ebn0_db=float("inf"), eps_k=0.0).eps_k == 0.0


def test_config_rejects_unknown_ore_mode():
    with pytest.raises(ValueError, match="ore_mode"):
        JointConfig(ore_mode="bogus")


def test_run_is_deterministic(truth, links, codebook, prior):
    a = JointRunner(truth, links, codebook, prior, _cfg()).run()
    b = JointRunner(truth, links, codebook, prior, _cfg()).run()
    assert np.array_equal(a.x_final, b.x_final)
    assert a.column("mse").tolist() == b.column("mse").tolist()
    assert a.column("ser").tolist() == b.column("ser").tolist()


def test_different_seeds_differ(truth, links, codebook, prior):
    a = JointRunner(truth, links, codebook, prior, _cfg(seed=1)).run()
    b = JointRunner(truth, links, codebook, prior, _cfg(seed=2)).run()
    assert not np.array_equal(a.x_final, b.x_final)


def test_mse_improves_over_packets(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(n_packets=10)).run()
    mse = tr.column("mse")
    assert mse[-1] < 0.2 * mse[0]
    assert tr.x_final.shape == truth.values.shape
    assert np.all(tr.x_final >= 0) and np.all(tr.x_final <= 1)


def test_feedback_fills_post_ser_rows(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(n_b=3)).run()
    post = [p.ser_post_feedback for p in tr.packets]
    # inline feedback revises earlier packets while the image still moves
    assert any(v is not None for v in post)
    # the final packet is never revised (no later packet feeds back to it)
    assert post[-1] is None
    # pilot packets are never re-decoded
    assert all(
        p.ser_post_feedback is None for p in tr.packets if p.pilot
    )


def test_feedback_stops_once_image_settles(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(n_b=1, n_packets=12)).run()
    post = [p.ser_post_feedback for p in tr.packets]
    filled = [v is not None for v in post]
    # once the stop rule fires the remaining packets stay unrevised
    last = max(i for i, f in enumerate(filled) if f)
    assert not any(filled[last + 1 :])
    assert last < len(post) - 1


def test_no_feedback_when_nb_zero(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(n_b=0)).run()
    assert all(p.ser_post_feedback is None for p in tr.packets)


def test_genie_decoder_at_least_as_good_early(truth, links, codebook, prior):
    cold = JointRunner(
        truth, links, codebook, prior, _cfg(ebn0_db=0.0, decoder="mpa", n_pilot=0)
    ).run()
    genie = JointRunner(
        truth, links, codebook, prior, _cfg(ebn0_db=0.0, decoder="genie", n_pilot=0)
    ).run()
    # at packet 1 the cold loop decodes with a scene-less channel guess
    assert genie.packets[0].ser <= cold.packets[0].ser


def test_genie_decodes_every_time_with_the_true_channel(truth, links, codebook, prior):
    """The genie decoder's self-iteration and feedback re-decodes use the
    true channel too, so they reproduce the forward decode exactly."""
    cfg = _cfg(decoder="genie", k_s=2, n_b=2, ebn0_db=0.0, n_packets=10)
    tr = JointRunner(truth, links, codebook, prior, cfg).run()
    revised = [p for p in tr.packets if p.ser_post_feedback is not None]
    assert revised and any(p.ser > 0 for p in revised)
    assert [p.ser_post_feedback for p in revised] == [p.ser for p in revised]


def test_genie_computes_the_true_channel_once_per_packet(
    monkeypatch, truth, links, codebook, prior
):
    """The genie decoder reuses the channel a packet was sent over for every
    decode of that packet, forward, self-iteration and feedback alike."""
    cfg = _cfg(decoder="genie", k_s=3, n_b=2, ebn0_db=0.0, n_packets=8, eps_k=0.0)
    true_calls, decodes = [], []
    channel = PacketChannel.channel

    def counted_channel(self, x):
        if x is truth.values:
            true_calls.append(self)
        return channel(self, x)

    def counted_decode(*args, **kwargs):
        decodes.append(1)
        return mpa_decode(*args, **kwargs)

    monkeypatch.setattr(PacketChannel, "channel", counted_channel)
    monkeypatch.setattr("jcas.joint.mpa_decode", counted_decode)
    trace = JointRunner(truth, links, codebook, prior, cfg).run()
    assert len(decodes) > 2 * sum(not p.pilot for p in trace.packets)
    assert len(true_calls) == cfg.n_packets
    assert len({id(ch) for ch in true_calls}) == cfg.n_packets


@pytest.mark.parametrize("decoder", ["mpa", "genie"])
def test_channel_blocks_change_no_output(monkeypatch, truth, links, codebook, prior, decoder):
    """Building the packets' channels in blocks of 4 (32 columns over the
    links' 8 antennas; the last block of the 10-packet run is cut to 2), one
    at a time, or all in one block gives the same run, field for field."""
    cfg = _cfg(decoder=decoder, n_packets=10, k_s=3, n_b=2, n_pilot=0, mu=0.5, ebn0_db=0.0)
    names = [f.name for f in fields(joint.PacketTrace) if f.name != "wall_ms"]

    def run(columns):
        monkeypatch.setattr(joint, "_BLOCK_COLUMNS", columns)
        trace = JointRunner(truth, links, codebook, prior, cfg).run()
        return [[getattr(p, n) for n in names] for p in trace.packets], trace.x_final

    rows, x_final = run(joint._BLOCK_COLUMNS)
    column = {n: [p[i] for p in rows] for i, n in enumerate(names)}
    # self-iteration, momentum behind the gate, feedback and decode errors ran
    assert max(column["ks_used"]) > 1 and any(column["gate"])
    assert any(s is not None for s in column["ser_post_feedback"])
    assert any(column["ser"])
    for columns in (1, 10**6):
        other_rows, other_x = run(columns)
        assert other_rows == rows
        assert np.array_equal(other_x, x_final)


@pytest.mark.parametrize(
    "kw",
    [dict(decoder="genie"), dict(n_pilot=2)],
    ids=["genie", "pilots"],
)
def test_self_iteration_skips_the_solve_of_an_unchanged_packet(
    monkeypatch, truth, links, codebook, prior, kw
):
    """A self-iteration whose packet decodes to the symbols of its last solve
    (the genie decoder's, a pilot's) does not solve again: every iteration
    runs (eps_k = 0), but such a packet costs one sense call."""
    cfg = _cfg(k_s=3, eps_k=0.0, n_packets=6, **kw)
    runner = JointRunner(truth, links, codebook, prior, cfg)
    solved = []  # the packet of each sense call

    def spied(*args, **kwargs):
        solved.append(runner.window[-1][2].packet)
        return sense(*args, **kwargs)

    monkeypatch.setattr("jcas.joint.sense", spied)
    trace = runner.run()
    assert trace.column("ks_used").tolist() == [cfg.k_s] * cfg.n_packets
    unchanged = [p.packet for p in trace.packets if p.pilot or cfg.decoder == "genie"]
    assert unchanged
    for packet in unchanged:
        assert solved.count(packet) == 1


def test_self_iteration_gate_collapses(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(k_s=4, n_packets=8)).run()
    ks = tr.column("ks_used")
    gates = tr.column("gate")
    assert gates.any()
    first_gate = int(np.argmax(gates))
    # once the gate holds, later packets spend a single self-iteration
    assert np.all(ks[first_gate + 1 :] == 1)


def test_momentum_blends_only_once_the_gate_has_held(
    monkeypatch, truth, links, codebook, prior
):
    """Each sensing step sets the image to clip(x) of its GAMP image x, or,
    once the gate has held, to clip((1 - mu) * x + mu * x_old) with the image
    x_old from before the step."""
    cfg = _cfg(mu=0.9, k_s=3, n_packets=8)
    runner = JointRunner(truth, links, codebook, prior, cfg)
    calls = []  # (gate open, image before the call, GAMP image) per call

    def recorded(*args, **kwargs):
        result = sense(*args, **kwargs)
        calls.append((runner.gate_open, runner.x_hat, result.x))
        return result

    monkeypatch.setattr("jcas.joint.sense", recorded)
    trace = runner.run()
    assert not any(trace.column("diverged"))
    # the image is set only by sensing, so each call's result is the image
    # the next call starts from, and the last one's is the final image
    after = [x_old for _, x_old, _ in calls[1:]] + [trace.x_final]
    gated = [gate for gate, _, _ in calls]
    assert any(gated) and not all(gated)
    for (gate, x_old, x), image in zip(calls, after):
        blend = (1 - cfg.mu) * x + cfg.mu * x_old if gate else x
        assert np.array_equal(image, np.clip(blend, 0.0, 1.0))


def test_pilot_packets_marked_and_error_free(truth, links, codebook, prior):
    tr = JointRunner(truth, links, codebook, prior, _cfg(n_pilot=3, ebn0_db=0.0)).run()
    pilots = tr.column("pilot")
    assert pilots[:3].all() and not pilots[3:].any()
    assert np.all(tr.column("ser")[:3] == 0)


def test_noiseless_run_exact(truth, links, codebook, prior):
    # 3 pilot packets stack enough rows for the sparse solver to lock in
    cfg = _cfg(ebn0_db=200.0, n_packets=8, n_b=0, n_pilot=3)
    tr = JointRunner(truth, links, codebook, prior, cfg).run()
    assert np.all(tr.column("ser") == 0)
    assert tr.packets[-1].mse <= 1e-6


def test_runners_share_no_state(truth, links, codebook, prior):
    cols = ("mse", "ser", "gate", "ks_used")
    a = JointRunner(truth, links, codebook, prior, _cfg()).run()
    # a runner on another book in between must not leak into the next one
    JointRunner(truth, links, build_codebook(6, 4, m=2, d_v=2), prior, _cfg(n_packets=3)).run()
    b = JointRunner(truth, links, codebook, prior, _cfg()).run()
    for name in cols:
        assert a.column(name).tolist() == b.column(name).tolist()
    assert np.array_equal(a.x_final, b.x_final)


def test_runner_history_is_bounded(truth, links, codebook, prior):
    cfg = _cfg(n_f=3, n_b=1, n_packets=9, n_pilot=0)
    runner = JointRunner(truth, links, codebook, prior, cfg)
    trace = RunTrace()
    images = [runner.x_hat.copy()]  # image after each packet, 0 = initial
    for packet in range(1, cfg.n_packets + 1):
        trace.packets.append(runner.forward_step(packet))
        images.append(runner.x_hat.copy())
        runner.feedback(packet)
        window = [row.packet for _, _, row, _ in runner.window]
        assert window == list(range(max(1, packet - cfg.n_f + 1), packet + 1))
        assert len(runner._x_hist) <= cfg.n_b + 2
        # feedback's anchor is the image after packet - n_b - 1
        assert np.array_equal(runner._x_hist[0], images[max(0, packet - cfg.n_b - 1)])
    assert any(p.ser_post_feedback is not None for p in trace.packets)


@pytest.mark.parametrize("n_f", [2, 6])
def test_feedback_redecodes_non_pilot_packets_in_window(truth, links, codebook, prior, n_f):
    """n_b = 3: with n_f = 2 only the previous packet is still in the window.
    eps_k = 0 keeps the image-moved skip from firing, so every call past
    packet n_b re-decodes."""
    cfg = _cfg(n_f=n_f, n_b=3, k_s=1, n_pilot=3, n_packets=9, eps_k=0.0)
    runner = JointRunner(truth, links, codebook, prior, cfg)
    decode, decoded = runner._decode, []

    def counted(rec, h_genie):
        # None for the forward decode, which runs before its packet is pushed
        decoded.append(next((row.packet for r, _, row, _ in runner.window if r is rec), None))
        return decode(rec, h_genie)

    runner._decode = counted
    rows = []
    for packet in range(1, cfg.n_packets + 1):
        rows.append(runner.forward_step(packet))
        for row in rows:
            row.ser_post_feedback = None
        decoded.clear()
        runner.feedback(packet)
        expected = [
            p
            for p in range(max(1, packet - cfg.n_b, packet - n_f + 1), packet)
            if p > cfg.n_pilot and packet > cfg.n_b
        ]
        assert decoded == expected
        assert [r.packet for r in rows if r.ser_post_feedback is not None] == expected


def test_runner_rejects_fewer_slots_than_largest_d_f(truth, links, codebook, prior):
    # the default book puts 3 users on each ORE: 2 slots cannot separate them
    assert codebook.max_d_f == 3
    with pytest.raises(ValueError, match=r"n_slots \(2\).*max_d_f = 3"):
        JointRunner(truth, links, codebook, prior, _cfg(n_slots=2))
    JointRunner(truth, links, codebook, prior, _cfg(n_slots=3))


def test_runner_bounds_the_mpa_tables(monkeypatch, truth, links, codebook, prior):
    """A per-FN table of M^max_d_f x N_T x N_R entries above the bound is
    rejected, naming M^d_f, unless the ML decoder (which builds no MPA
    table) runs the book."""
    entries = codebook.m**codebook.max_d_f * 64 * links.n_antennas
    monkeypatch.setattr(joint, "_MAX_TABLE_ENTRIES", entries)
    JointRunner(truth, links, codebook, prior, _cfg(n_slots=64))
    monkeypatch.setattr(joint, "_MAX_TABLE_ENTRIES", entries - 1)
    for decoder in ("mpa", "genie"):
        with pytest.raises(ValueError, match=r"M\^d_f = 4\^3 .* 64 slots x 8 antennas"):
            JointRunner(truth, links, codebook, prior, _cfg(n_slots=64, decoder=decoder))
    JointRunner(truth, links, codebook, prior, _cfg(n_slots=64, decoder="ml"))


@pytest.mark.parametrize(
    "swap, match",
    [
        ("codebook", r"codebook users \(8\) != the links' \(6\)"),
        ("ores", r"codebook OREs \(5\) != the links' \(4\)"),
        ("scene", r"scene voxels \(64\) != the links' \(512\)"),
    ],
)
def test_runner_rejects_inputs_that_disagree_with_the_links(
    truth, links, codebook, prior, swap, match
):
    if swap == "codebook":
        codebook = build_codebook(8, 4)
    elif swap == "ores":
        codebook = build_codebook(6, 5)
    else:
        truth = random_scene(RoomSpec((2.0, 2.0, 2.0), (0.5, 0.5, 0.5)), 0.05, seed=1)
    with pytest.raises(ValueError, match=match):
        JointRunner(truth, links, codebook, prior, _cfg())
