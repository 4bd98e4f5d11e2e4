"""bellsim: exact four-mode boson algebra plus a truncated Fock-space
simulator for optical Bell-inequality experiments."""

__version__ = "0.1.0"
