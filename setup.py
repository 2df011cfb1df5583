"""Package metadata: ``python setup.py develop`` installs ``repro`` from
``src`` as an editable package.

PEP 660 editable installs (``pip install -e .``) need the ``wheel``
package, which an offline machine with an older setuptools may lack;
``setup.py develop`` needs neither.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="A reproduction of Hillview: a trillion-cell spreadsheet for big data",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "orjson"],
)
