"""Data-driven storage/barrier certificate toolkit for interconnected
networks of black-box discrete-time subsystems."""

__version__ = "0.1.0"
