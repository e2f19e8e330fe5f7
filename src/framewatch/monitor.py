"""Deployment monitor: advance, stop, backtrack over a live score stream.

The per-frame anomaly score is smoothed by a trailing mean over the last
W frames (partial windows at stream start).  While advancing, the
monitor counts consecutive frames whose smoothed score exceeds the
trigger threshold; at C consecutive exceedances it stops, and on the
next frame it starts backtracking.  BACKTRACK is terminal: the mission
is aborted and the monitor never returns to ADVANCE.

A non-finite score is a monitor fault and triggers an immediate
fail-safe Stop, logged distinctly.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .errors import ConfigError

DEFAULT_WINDOW = 15      # ~0.5 s at 30 fps
DEFAULT_CONSECUTIVE = 3


class Phase(Enum):
    ADVANCE = "ADVANCE"
    STOP = "STOP"
    BACKTRACK = "BACKTRACK"


class Action(Enum):
    ADVANCE = "Advance"
    STOP = "Stop"
    BACKTRACK = "Backtrack"


@dataclass
class MonitorConfig:
    threshold: float
    window: int = DEFAULT_WINDOW
    consecutive: int = DEFAULT_CONSECUTIVE

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ConfigError(f"threshold must be finite, got {self.threshold}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.consecutive < 1:
            raise ConfigError("consecutive must be >= 1")


@dataclass
class MonitorState:
    phase: Phase = Phase.ADVANCE
    window_buffer: deque = field(default_factory=deque)
    consecutive_over: int = 0
    frames_seen: int = 0
    trigger_frame: Optional[int] = None


@dataclass
class MonitorEvent:
    frame_index: int
    score: float
    smoothed: float
    phase: Phase
    action: Action
    fault: bool = False


def monitor_step(state: MonitorState, score: float,
                 cfg: MonitorConfig) -> tuple[MonitorState, Action]:
    """Advance the state machine by one frame; mutates and returns state."""
    frame = state.frames_seen
    state.frames_seen += 1

    if not math.isfinite(score):
        # Fail closed: a hazard monitor must not silently advance.
        if state.phase is Phase.ADVANCE:
            state.phase = Phase.STOP
            state.trigger_frame = frame
            return state, Action.STOP
        if state.phase is Phase.STOP:
            state.phase = Phase.BACKTRACK
        return state, Action.BACKTRACK

    state.window_buffer.append(score)
    while len(state.window_buffer) > cfg.window:
        state.window_buffer.popleft()
    smoothed = sum(state.window_buffer) / len(state.window_buffer)

    if state.phase is Phase.ADVANCE:
        if smoothed > cfg.threshold:
            state.consecutive_over = min(state.consecutive_over + 1, cfg.consecutive)
        else:
            state.consecutive_over = 0
        if state.consecutive_over >= cfg.consecutive:
            state.phase = Phase.STOP
            state.trigger_frame = frame
            return state, Action.STOP
        return state, Action.ADVANCE
    if state.phase is Phase.STOP:
        state.phase = Phase.BACKTRACK
        return state, Action.BACKTRACK
    return state, Action.BACKTRACK


def _smoothed_of(state: MonitorState) -> float:
    if not state.window_buffer:
        return float("nan")
    return sum(state.window_buffer) / len(state.window_buffer)


def run_monitor(scores: Iterable[float], cfg: MonitorConfig) -> list[MonitorEvent]:
    """Fold monitor_step over a score stream; one event per frame."""
    state = MonitorState()
    events = []
    for frame, score in enumerate(scores):
        fault = not math.isfinite(score)
        state, action = monitor_step(state, score, cfg)
        events.append(MonitorEvent(
            frame_index=frame,
            score=score,
            smoothed=_smoothed_of(state),
            phase=state.phase,
            action=action,
            fault=fault,
        ))
    return events


def events_to_csv(events: list[MonitorEvent]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame_index", "score", "smoothed", "phase", "action", "fault"])
    for e in events:
        writer.writerow([e.frame_index, repr(e.score), repr(e.smoothed),
                         e.phase.value, e.action.value, int(e.fault)])
    return buf.getvalue()
