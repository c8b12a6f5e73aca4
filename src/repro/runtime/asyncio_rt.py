"""The wall runtime's former name, which the outside-in benchmark tracer
resolves until ROADMAP 6b replaces it."""

from repro.runtime.wall import WallRuntime as AsyncioRuntime

__all__ = ["AsyncioRuntime"]
