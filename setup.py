"""Legacy setuptools entry point, for `python setup.py ...` and older pip.

All metadata (version, dependencies, package data with the C source
`_glauber.c`, console scripts) lives in pyproject.toml.  The C kernels ship
as source and are compiled at first import, not at install time.
"""

from setuptools import setup

setup()
