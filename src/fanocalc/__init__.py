"""Exact intersection numbers and anticanonical Seshadri constants for
Fano threefolds."""

from . import catalog, classify, errors, parser, ring
from .parser import parse_family_id
