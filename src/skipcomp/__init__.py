"""Coverage and mobility-aware throughput for a single-tier PPP downlink
under best-connected association and cooperative handover skipping."""

__version__ = "0.7.0"

from .model import (  # noqa: F401
    Association,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeSpec,
    db_to_linear,
)
