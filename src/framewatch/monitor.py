"""Deployment monitor: advance, stop, backtrack over a live score stream.

The per-frame anomaly score is smoothed by a trailing median over the
last W frames (partial windows at stream start): one middle value of the
sorted window, `sorted(w)[(len(w) - 1) // 2]`, the lower one for an even
window.  It exceeds the trigger threshold exactly when more than half of
the window's frames do, so one outlier frame, however high, cannot stop
the monitor.  While advancing, the monitor counts consecutive frames
whose smoothed score exceeds the threshold; at C consecutive exceedances
it stops, and on the next frame it starts backtracking.  An episode whose
every frame exceeds the threshold lifts a full window of W = 15 once 8
of its frames are in, so with C = 3 it stops by onset + 9.  On normal
frames that each exceed it independently with p = 0.01, a smoothed
exceedance needs 8 of 15 over: about C(15, 8) p^8 = 6e-13 per frame.
BACKTRACK is terminal: the mission is aborted and the monitor never
returns to ADVANCE.

A non-finite score is a monitor fault and triggers an immediate
fail-safe Stop, logged distinctly; it does not enter the window.

`monitor_step` keeps the trailing median in the state, where `run_monitor`
reads it for the log's `smoothed` column.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .config import check_ranges
from .errors import ConfigError

DEFAULT_WINDOW = 15      # ~0.5 s at 30 fps
DEFAULT_CONSECUTIVE = 3


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
            raise ConfigError(f"monitor threshold must be finite, got {self.threshold}")
        # These messages name the run-config keys the fields are read from.
        check_ranges(self, "monitor_", at_least_one=("window", "consecutive"))


@dataclass
class MonitorState:
    phase: Action = Action.ADVANCE   # the action of the last frame
    window_buffer: deque = field(default_factory=deque)
    smoothed: float = math.nan   # trailing median of window_buffer; NaN while empty
    consecutive_over: int = 0


@dataclass
class MonitorEvent:
    frame_index: int
    score: float
    smoothed: float
    action: Action
    fault: bool = False


def monitor_step(state: MonitorState, score: float,
                 cfg: MonitorConfig) -> tuple[MonitorState, Action]:
    """Advance the state machine by one frame; mutates state and returns it
    with its new phase, which is the frame's action."""
    # A non-finite score leaves the window alone and, while advancing,
    # stops at once: a hazard monitor must not silently advance.
    fault = not math.isfinite(score)
    if not fault:
        window = state.window_buffer
        window.append(score)
        while len(window) > cfg.window:
            window.popleft()
        state.smoothed = sorted(window)[(len(window) - 1) // 2]

    if state.phase is Action.STOP:
        state.phase = Action.BACKTRACK
    elif state.phase is Action.ADVANCE:
        if not fault:
            state.consecutive_over = (state.consecutive_over + 1
                                      if state.smoothed > cfg.threshold else 0)
        if fault or state.consecutive_over >= cfg.consecutive:
            state.phase = Action.STOP
    return state, state.phase


def run_monitor(scores: Iterable[float], cfg: MonitorConfig) -> list[MonitorEvent]:
    """Fold monitor_step over a score stream; one event per frame."""
    state = MonitorState()
    events = []
    for frame, score in enumerate(scores):
        state, action = monitor_step(state, score, cfg)
        events.append(MonitorEvent(
            frame_index=frame,
            score=score,
            smoothed=state.smoothed,
            action=action,
            fault=not math.isfinite(score),
        ))
    return events


def events_to_csv(events: list[MonitorEvent]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame_index", "score", "smoothed", "action", "fault"])
    for e in events:
        writer.writerow([e.frame_index, repr(e.score), repr(e.smoothed),
                         e.action.value, int(e.fault)])
    return buf.getvalue()
