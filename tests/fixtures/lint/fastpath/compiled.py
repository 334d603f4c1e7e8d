"""Fixture: column layout drifted but the format tag did not (RPR360).

The layout below adds a ``phase`` column over the committed
``schema_baseline.json`` while keeping the version tags unchanged —
exactly the drift the rule exists to catch.
"""

SCHEMA_VERSION = "compiled-schedule-chunked/v3"
FORMAT_VERSION = 3

COLUMN_NAMES = ["time", "agent", "src", "dst", "kind", "role", "phase"]
