import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framewatch.errors import ConfigError
from framewatch.monitor import (Action, MonitorConfig, MonitorEvent,
                                MonitorState, events_to_csv,
                                monitor_step, run_monitor)
from framewatch.rng import RngStream

from _helpers import reference_run_monitor


def test_constant_below_threshold_never_triggers():
    cfg = MonitorConfig(threshold=1.0, window=5, consecutive=3)
    events = run_monitor([0.5] * 100, cfg)
    assert all(e.action is Action.ADVANCE for e in events)


def test_stop_exactly_at_third_exceedance():
    # scores jump from 0 to 2*tau at frame 50; W=1, C=3 -> stop at frame 52
    cfg = MonitorConfig(threshold=1.0, window=1, consecutive=3)
    scores = [0.0] * 50 + [2.0] * 20
    events = run_monitor(scores, cfg)
    stops = [e.frame_index for e in events if e.action is Action.STOP]
    assert stops == [52]
    assert events[53].action is Action.BACKTRACK


def test_single_spike_is_debounced():
    cfg = MonitorConfig(threshold=1.0, window=1, consecutive=3)
    scores = [0.0] * 30 + [10.0] + [0.0] * 30
    events = run_monitor(scores, cfg)
    assert all(e.action is Action.ADVANCE for e in events)


def test_window_smoothing_is_trailing_median():
    """The smoothed score is one middle value of the sorted trailing
    window; an even partial window at stream start takes the lower one."""
    cfg = MonitorConfig(threshold=100.0, window=3, consecutive=1)
    events = run_monitor([9.0, 3.0, 6.0, 12.0, 1.0], cfg)
    assert [e.smoothed for e in events] == [9.0, 3.0, 6.0, 6.0, 6.0]


def test_one_outlier_frame_does_not_stop_the_monitor():
    """A single frame at 100 x tau in a stream of normal scores moves the
    median of no window over tau."""
    cfg = MonitorConfig(threshold=1.0, window=15, consecutive=3)
    scores = (0.9 * RngStream(4).uniform(200)).tolist()
    scores[120] = 100.0
    assert all(e.action is Action.ADVANCE for e in run_monitor(scores, cfg))


def test_sustained_episode_stops_by_onset_plus_nine():
    """Every frame from the onset over tau: the median of a full 15-frame
    window crosses tau with the 8th of them, so C = 3 stops at onset + 9.
    Normal frames over tau still in the window count too: with six of
    them, the 2nd anomalous frame crosses and the Stop comes at onset + 3,
    and none comes before the onset."""
    cfg = MonitorConfig(threshold=1.0, window=15, consecutive=3)
    onset = 100
    normal = (0.9 * RngStream(5).uniform(onset)).tolist()
    for over_before, stop in ((0, onset + 9), (6, onset + 3)):
        normal[onset - 1 - over_before:onset - 1] = [1.5] * over_before
        events = run_monitor(normal + [5.0] * 30, cfg)
        assert [e.frame_index for e in events if e.action is Action.STOP] == [stop]


def test_partial_window_at_stream_start():
    cfg = MonitorConfig(threshold=1.0, window=10, consecutive=1)
    events = run_monitor([5.0], cfg)  # stream shorter than the window
    assert len(events) == 1
    assert events[0].action is Action.STOP


def test_exactly_one_stop_then_terminal_backtrack():
    cfg = MonitorConfig(threshold=1.0, window=2, consecutive=2)
    scores = [0.0] * 20 + [5.0] * 30 + [0.0] * 30  # recovery is ignored
    events = run_monitor(scores, cfg)
    actions = [e.action for e in events]
    assert actions.count(Action.STOP) == 1
    stop_at = actions.index(Action.STOP)
    assert all(a is Action.BACKTRACK for a in actions[stop_at + 1:])


def test_nonfinite_score_fails_safe():
    cfg = MonitorConfig(threshold=10.0, window=3, consecutive=3)
    events = run_monitor([0.1, float("nan"), 0.1], cfg)
    assert events[1].action is Action.STOP
    assert events[1].fault
    assert events[2].action is Action.BACKTRACK


def test_replay_deterministic():
    cfg = MonitorConfig(threshold=0.5, window=4, consecutive=2)
    scores = RngStream(1).uniform(200).tolist()
    assert run_monitor(scores, cfg) == run_monitor(scores, cfg)


def test_bounded_detection_latency():
    # sustained exceedance from frame t: stop by t + W + C
    rng = RngStream(2)
    for trial in range(50):
        w = 1 + int(rng.integers(0, 8, 1)[0])
        c = 1 + int(rng.integers(0, 4, 1)[0])
        t = int(rng.integers(5, 40, 1)[0])
        cfg = MonitorConfig(threshold=1.0, window=w, consecutive=c)
        scores = [0.0] * t + [3.0] * (t + w + c + 5)
        stops = [e.frame_index for e in run_monitor(scores, cfg)
                 if e.action is Action.STOP]
        assert stops and stops[0] <= t + w + c


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
       st.integers(1, 8), st.integers(1, 4),
       st.floats(-5, 5))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_phase_monotone_on_fuzzed_streams(scores, window, consecutive, tau):
    cfg = MonitorConfig(threshold=tau, window=window, consecutive=consecutive)
    rank = {Action.ADVANCE: 0, Action.STOP: 1, Action.BACKTRACK: 2}
    events = run_monitor(scores, cfg)
    phases = [rank[e.action] for e in events]
    assert phases == sorted(phases)
    # never skips STOP
    for a, b in zip(phases, phases[1:]):
        assert b - a <= 1


def test_no_stop_when_smoothed_never_exceeds():
    cfg = MonitorConfig(threshold=2.0, window=5, consecutive=1)
    scores = (1.9 * RngStream(3).uniform(500)).tolist()
    events = run_monitor(scores, cfg)
    assert all(e.action is Action.ADVANCE for e in events)


def test_state_invariants():
    cfg = MonitorConfig(threshold=1.0, window=3, consecutive=2)
    state = MonitorState()
    for score in [0.0, 5.0, 5.0, 5.0, 5.0]:
        state, action = monitor_step(state, score, cfg)
        assert action is state.phase
        assert state.consecutive_over <= cfg.consecutive
        window = sorted(state.window_buffer)
        assert len(window) <= cfg.window
        assert state.smoothed == window[(len(window) - 1) // 2]


def test_event_log_csv():
    cfg = MonitorConfig(threshold=1.0, window=1, consecutive=1)
    events = run_monitor([0.0, 2.0], cfg)
    text = events_to_csv(events)
    lines = text.strip().split("\n")
    assert lines[0].startswith("frame_index,")
    assert len(lines) == 3
    assert "Stop" in lines[2]


def test_event_log_csv_text_is_pinned():
    """The log's exact text: the action as named, once, fault 1 for a
    non-finite score, and `nan` smoothing until a finite score enters the
    window."""
    cfg = MonitorConfig(threshold=1.0, window=2, consecutive=2)
    header = "frame_index,score,smoothed,action,fault\n"
    assert events_to_csv(run_monitor([0.1, 0.5, float("inf"), 3.0], cfg)) == (
        header
        + "0,0.1,0.1,Advance,0\n"
        + "1,0.5,0.1,Advance,0\n"
        + "2,inf,0.1,Stop,1\n"
        + "3,3.0,0.5,Backtrack,0\n")
    assert events_to_csv(run_monitor([float("nan"), 2.0], cfg)) == (
        header
        + "0,nan,nan,Stop,1\n"
        + "1,2.0,2.0,Backtrack,0\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        MonitorConfig(threshold=1.0, window=0)
    with pytest.raises(ConfigError):
        MonitorConfig(threshold=1.0, consecutive=0)
    with pytest.raises(ConfigError):
        MonitorConfig(threshold=float("nan"))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_threshold(tau):
    with pytest.raises(ConfigError, match=f"monitor threshold must be finite, got {tau}"):
        MonitorConfig(threshold=tau)


STREAM_SCORE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 0.5,
                     1.0, 1.5, 4.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(STREAM_SCORE, max_size=40), st.integers(1, 8), st.integers(1, 4),
       st.sampled_from([-0.5, 0.0, 1.0, 2.0]))
def test_run_monitor_matches_reference_fold(scores, window, consecutive, threshold):
    cfg = MonitorConfig(threshold=threshold, window=window, consecutive=consecutive)
    assert events_to_csv(run_monitor(scores, cfg)) == \
        events_to_csv(reference_run_monitor(scores, cfg))
