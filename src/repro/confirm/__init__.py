"""Race confirmation: schedule-controlled replay that proves every
reported race fires (or says exactly how it failed to)."""

from .service import (
    ConfirmConfig,
    ConfirmationReport,
    RaceVerdict,
    confirm_races,
)

__all__ = [
    "ConfirmConfig",
    "ConfirmationReport",
    "RaceVerdict",
    "confirm_races",
]
