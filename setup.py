"""Legacy setuptools entry point; the package has no compiled extension.

Metadata lives in pyproject.toml; the subset repeated here keeps legacy
setuptools toolchains (which ignore the [project] table) producing a working
install with console scripts.  The C sweep kernel ships as source
(`_glauber.c`) and is compiled at first import, not at install time.
"""

from setuptools import find_packages, setup

setup(
    name="soficlab",
    version="0.1.0",
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"soficlab": ["_glauber.c"]},
    entry_points={
        "console_scripts": [
            "soficlab = soficlab.cli:main",
            "sofic-stats = soficlab.cli:main_sofic_stats",
            "tssm-check = soficlab.cli:main_tssm_check",
            "pressure = soficlab.cli:main_pressure",
            "entropy = soficlab.cli:main_entropy",
            "ssm-profile = soficlab.cli:main_ssm_profile",
            "kp-estimate = soficlab.cli:main_kp_estimate",
            "saw-marginal = soficlab.cli:main_saw_marginal",
        ]
    },
)
